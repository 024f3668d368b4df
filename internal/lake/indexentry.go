package lake

import (
	"bytes"
	"fmt"
	"strings"

	"lakeharbor/internal/keycodec"
)

// An index entry is the payload stored in index files: it tells a Referencer
// how to build a Pointer to the indexed record. It carries the target
// record's partition key (which may differ from its primary key — that is
// what makes an index "global") and the target's in-partition key.
//
// The encoding reuses keycodec's self-delimiting string encoding so the two
// fields can be concatenated unambiguously.

// EncodeIndexEntry packs (partition key, primary key) into an index record
// payload: one buffer, sized with a byte more for every 0x00 to escape.
func EncodeIndexEntry(partKey, primaryKey Key) []byte {
	escapes := strings.Count(partKey, "\x00") + strings.Count(primaryKey, "\x00")
	b := make([]byte, 0, len(partKey)+len(primaryKey)+escapes+4)
	return keycodec.AppendString(keycodec.AppendString(b, partKey), primaryKey)
}

// DecodeIndexEntry unpacks a payload written by EncodeIndexEntry through a
// one-shot Arena whose one chunk is the entry's size.
func DecodeIndexEntry(data []byte) (partKey, primaryKey Key, err error) {
	a := Arena{chunk: make([]byte, 0, len(data))}
	return a.DecodeIndexEntry(data)
}

// DecodeIndexEntry unpacks an index entry into keys cut from a: copied, never
// aliasing the entry. When the two halves are byte-equal — a file partitioned
// by its own key — one key is returned twice.
func (a *Arena) DecodeIndexEntry(data []byte) (partKey, primaryKey Key, err error) {
	if a == nil {
		return DecodeIndexEntry(data)
	}
	partKey, n, err := a.decode(data)
	if err != nil {
		return "", "", fmt.Errorf("lake: bad index entry: %w", err)
	}
	if bytes.Equal(data[:n], data[n:]) {
		return partKey, partKey, nil
	}
	primaryKey, m, err := a.decode(data[n:])
	if err != nil {
		return "", "", fmt.Errorf("lake: bad index entry: %w", err)
	}
	if n+m != len(data) {
		return "", "", fmt.Errorf("lake: index entry has %d trailing bytes", len(data)-n-m)
	}
	return partKey, primaryKey, nil
}

// decode cuts the key encoded at the start of enc from a (a key is never
// longer than its encoding). On error nothing is cut.
func (a *Arena) decode(enc []byte) (Key, int, error) {
	b, n, err := keycodec.AppendDecoded(a.Tail(len(enc)), enc)
	if err != nil {
		return "", n, err
	}
	return a.CutKey(b), n, nil
}
