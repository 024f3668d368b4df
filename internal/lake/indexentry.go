package lake

import (
	"fmt"

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
// payload.
func EncodeIndexEntry(partKey, primaryKey Key) []byte {
	return []byte(keycodec.Tuple(keycodec.String(partKey), keycodec.String(primaryKey)))
}

// DecodeIndexEntry unpacks a payload written by EncodeIndexEntry.
func DecodeIndexEntry(data []byte) (partKey, primaryKey Key, err error) {
	pk, n, err := keycodec.DecodeBytes(data)
	if err != nil {
		return "", "", fmt.Errorf("lake: bad index entry: %w", err)
	}
	rk, m, err := keycodec.DecodeBytes(data[n:])
	if err != nil {
		return "", "", fmt.Errorf("lake: bad index entry: %w", err)
	}
	if n+m != len(data) {
		return "", "", fmt.Errorf("lake: index entry has %d trailing bytes", len(data)-n-m)
	}
	return string(pk), string(rk), nil
}
