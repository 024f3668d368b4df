package btree

import (
	"fmt"
	"testing"
)

// FuzzGetBatch fuzzes the batched lookup path — one Cursor over a key list,
// as dfs serves a pointer batch — against the per-key one: whatever tree the
// insert bytes build (duplicate keys included, runs spanning leaf splits)
// and whatever query list the lookup bytes produce (unsorted, descending,
// repeated, part hits part misses), the cursor must return exactly what one
// Get per key returns, aligned position by position. The cursor is the
// storage end of the executor's pointer batching, so a divergence here is a
// silent wrong answer for every batched query.
func FuzzGetBatch(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 1, 9}, []byte{1, 3, 3, 5})
	f.Add([]byte{}, []byte{0, 0, 0})
	f.Add([]byte{255, 0, 255, 1, 255, 2}, []byte{255, 254, 255})
	f.Fuzz(func(t *testing.T, inserts, lookups []byte) {
		tr := New()
		for i := 0; i+1 < len(inserts); i += 2 {
			// Narrow key space on purpose: collisions produce duplicate
			// keys, which is the interesting multiset case. Each byte pair
			// inserts a run, so duplicates outgrow a leaf.
			k := fmt.Sprintf("k%03d", inserts[i]%32)
			for j := 0; j <= int(inserts[i+1]%4)*degree/3; j++ {
				tr.Insert(k, []byte{inserts[i+1], byte(j)})
			}
		}
		keys := make([]string, 0, len(lookups))
		for i, b := range lookups {
			k := fmt.Sprintf("k%03d", b%64) // half the space misses
			if i%5 == 4 {
				k += "x" // never inserted: exercise guaranteed misses
			}
			keys = append(keys, k)
		}
		sameAsGet(t, tr, keys, getBatch(tr, keys))
	})
}
