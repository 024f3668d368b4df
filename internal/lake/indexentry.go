package lake

import (
	"bytes"
	"fmt"
	"strings"
	"unsafe"

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
// one-shot KeyArena whose one chunk is the entry's size.
func DecodeIndexEntry(data []byte) (partKey, primaryKey Key, err error) {
	a := KeyArena{chunk: make([]byte, 0, len(data))}
	return a.DecodeIndexEntry(data)
}

// keyChunk is the size of the chunks a KeyArena cuts keys from.
const keyChunk = 4096

// KeyArena owns keys decoded from index entries: each is copied into a
// fixed-size chunk and cut from it, never aliasing the entry, so a task's
// entries cost a chunk now and then instead of a string each. A chunk is
// only appended to, never grown in place or reused, so a key's bytes are
// never written again: a key lives as long as anything references it, the
// collector the chunk's only owner. A nil arena decodes one-shot.
type KeyArena struct{ chunk []byte }

// DecodeIndexEntry unpacks an index entry into keys cut from a. When the two
// halves are byte-equal — a file partitioned by its own key — one key is
// returned twice.
func (a *KeyArena) DecodeIndexEntry(data []byte) (partKey, primaryKey Key, err error) {
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

// decode cuts the key encoded at the start of enc from the chunk, starting a
// new one when fewer than len(enc) bytes are left (a key is never longer).
func (a *KeyArena) decode(enc []byte) (Key, int, error) {
	if cap(a.chunk)-len(a.chunk) < len(enc) {
		a.chunk = make([]byte, 0, max(len(enc), keyChunk))
	}
	start := len(a.chunk)
	chunk, n, err := keycodec.AppendDecoded(a.chunk, enc)
	if err != nil || len(chunk) == start {
		return "", n, err
	}
	a.chunk = chunk
	return unsafe.String(&chunk[start], len(chunk)-start), n, nil
}
