package btree

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// getBatch is a pointer batch as dfs serves it: one Cursor over every key,
// each key's values appended in turn to one shared array.
func getBatch(tr *Tree, keys []string) [][][]byte {
	out := make([][][]byte, len(keys))
	var flat [][]byte
	c := tr.Cursor()
	for i, k := range keys {
		start := len(flat)
		c.Visit(k, func(v []byte) { flat = append(flat, v) })
		if len(flat) > start {
			out[i] = flat[start:len(flat):len(flat)]
		}
	}
	return out
}

// sameAsGet fails t unless batch holds, position by position, exactly what
// one Get per key returns (nil and empty both read as a miss).
func sameAsGet(t *testing.T, tr *Tree, keys []string, batch [][][]byte) {
	t.Helper()
	if len(batch) != len(keys) {
		t.Fatalf("%d results for %d keys", len(batch), len(keys))
	}
	for i, k := range keys {
		want := tr.Get(k)
		if (len(want) != 0 || len(batch[i]) != 0) && !reflect.DeepEqual(want, batch[i]) {
			t.Fatalf("key %q (position %d of %q): cursor %q, Get %q", k, i, keys, batch[i], want)
		}
	}
}

// TestGetBatchMatchesGet: for random trees with duplicate runs, one Cursor
// over an unsorted, repeating key list (hits and misses mixed) — and over
// the same list ascending and descending — returns exactly what per-key Get
// returns.
func TestGetBatchMatchesGet(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		tr := New()
		n := rng.Intn(800)
		for i := 0; i < n; i++ {
			// Narrow key space forces duplicate runs, some spanning leaves.
			k := fmt.Sprintf("k%03d", rng.Intn(120))
			tr.Insert(k, []byte(fmt.Sprintf("v%d", i)))
		}
		var keys []string
		for i := 0; i < 200; i++ {
			keys = append(keys, fmt.Sprintf("k%03d", rng.Intn(160))) // ~25% misses
		}
		// Repeats, including adjacent ones after sorting.
		keys = append(keys, keys[:20]...)
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		sameAsGet(t, tr, keys, getBatch(tr, keys))
		sort.Strings(keys)
		sameAsGet(t, tr, keys, getBatch(tr, keys))
		sort.Sort(sort.Reverse(sort.StringSlice(keys)))
		sameAsGet(t, tr, keys, getBatch(tr, keys))
	}
}

func TestGetBatchEmptyAndMissOnly(t *testing.T) {
	tr := New()
	if out := getBatch(tr, []string{"a", ""}); out[0] != nil || out[1] != nil {
		t.Fatalf("lookups in an empty tree returned %v", out)
	}
	tr.Insert("b", []byte("1"))
	out := getBatch(tr, []string{"a", "c", "z"})
	for i, vals := range out {
		if vals != nil {
			t.Fatalf("miss %d returned %v", i, vals)
		}
	}
}

// TestCursorDuplicateRunsAcrossLeaves: a key whose duplicate run spans
// several leaves is found whole from any cursor position — in particular
// after a lookup that left the cursor in the run's last leaf, whose first
// key equals the run's key, and after one that left it past the run
// altogether (a smaller key must never be served from a later leaf).
func TestCursorDuplicateRunsAcrossLeaves(t *testing.T) {
	tr := New()
	for i := 0; i < 300; i++ {
		tr.Insert(fmt.Sprintf("a%03d", i), []byte("a"))
	}
	for i := 0; i < 5*degree; i++ {
		tr.Insert("m", []byte(fmt.Sprint(i))) // a run over several leaves
	}
	for i := 0; i < 300; i++ {
		tr.Insert(fmt.Sprintf("z%03d", i), []byte("z"))
	}
	if tr.Height() < 2 {
		t.Fatal("tree too small to split leaves")
	}
	for _, keys := range [][]string{
		{"m", "m"},
		{"z000", "m"},
		{"z299", "m", "a299", "m"},
		{"m", "a000", "m", "z150", "m", "z149", "a150"},
		{"n", "m", "l", "m"},
	} {
		batch := getBatch(tr, keys)
		sameAsGet(t, tr, keys, batch)
		for i, k := range keys {
			if k == "m" && len(batch[i]) != 5*degree {
				t.Fatalf("%q: run of %d values, want %d", keys, len(batch[i]), 5*degree)
			}
		}
	}
}
