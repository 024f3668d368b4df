package lake

import (
	"fmt"
	"strings"

	"lakeharbor/internal/keycodec"
)

// Composite records.
//
// A multi-way join needs the partial join result to flow through the
// Reference-Dereference chain: a Referencer can attach the current record as
// *carried context* on the pointers it emits, and the next Dereferencer can
// combine that context with each record it fetches. The combined payload is
// a *segment list* — a concatenation of self-delimiting segments, one per
// base record joined so far — which downstream Interpreters split again for
// schema-on-read.
//
// Segments reuse keycodec's escaped string encoding, so arbitrary payload
// bytes are safe.

// EncodeSegments packs payloads into one segment-list payload: the arena
// form onto fresh memory.
func EncodeSegments(segs ...[]byte) []byte {
	return (*Arena)(nil).EncodeSegments(segs...)
}

// AppendSegment appends one more payload to an existing segment list. The
// result is fresh memory: list is not modified and not aliased.
func AppendSegment(list []byte, seg []byte) []byte {
	var a *Arena // one-shot: Join builds in fresh memory
	return a.Cut(a.Join(list, seg))
}

// appendSegments appends the segment-list encoding of segs to dst: the one
// body behind EncodeSegments, AppendSegment and their Arena forms.
func appendSegments(dst []byte, segs ...[]byte) []byte {
	for _, s := range segs {
		dst = keycodec.AppendString(dst, s)
	}
	return dst
}

// segmentsLen is the encoded size of segs, exact unless a payload holds 0x00.
func segmentsLen(segs ...[]byte) int {
	n := 0
	for _, s := range segs {
		n += len(s) + 2
	}
	return n
}

// DecodeSegments splits a segment-list payload into its payloads. A segment
// stored without an escape — any payload free of 0x00 bytes — is returned as
// a sub-slice of data: valid only while data is, and read-only whenever data
// is (dfs shares Record.Data with its B-trees). A segment with an escape is
// decoded into fresh memory.
func DecodeSegments(data []byte) ([][]byte, error) {
	if len(data) == 0 {
		return nil, nil
	}
	return SplitSegments(make([][]byte, 0, 4), data) // Q5′'s widest composite; longer lists grow
}

// SplitSegments is DecodeSegments appending to dst, so a caller that only
// looks at the segments can keep their headers on its stack.
func SplitSegments(dst [][]byte, data []byte) ([][]byte, error) {
	for len(data) > 0 {
		seg, n, err := keycodec.DecodeBytes(data)
		if err != nil {
			return nil, fmt.Errorf("lake: bad segment list: %w", err)
		}
		dst = append(dst, seg)
		data = data[n:]
	}
	return dst, nil
}

// PrefixRange returns the inclusive key range [lo, hi] covering every key
// that begins with prefix. Because B-tree ranges here are inclusive on both
// ends, hi cannot be the prefix successor — a bare key can equal it (e.g.
// the 8-byte encoding of n+1 is exactly the successor of n's). Instead hi
// pads the prefix with 64 0xFF bytes: every key prefix+suffix with
// len(suffix) <= 64 sorts at or below it, and longer suffixes would need 64
// consecutive 0xFF bytes to escape, which no keycodec encoding produces.
func PrefixRange(prefix Key) (lo, hi Key) {
	return (*Arena)(nil).PrefixRange(prefix)
}

// prefixPad is PrefixRange's 64 0xFF bytes, built once: a call allocates hi only.
var prefixPad = strings.Repeat("\xff", 64)
