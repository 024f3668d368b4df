// Package btree implements an in-memory B+tree keyed by order-preserving
// byte-string keys, with duplicate keys allowed.
//
// It is the structure behind lake.BtreeFile: primary files, local secondary
// indexes, and global indexes are all partitions of B+trees. Duplicate keys
// are first-class because a secondary index maps one index key to many
// record pointers.
//
// The tree itself is not synchronized; dfs wraps each partition in an
// RWMutex (queries are read-mostly and structure builds are batched).
package btree

import (
	"cmp"
	"slices"
	"sort"
)

// degree is the maximum number of entries in a leaf and of children in an
// internal node. 64 keeps the tree shallow for the partition sizes used in
// the experiments while exercising multi-level behaviour in tests.
const degree = 64

// Tree is a B+tree from string keys to byte-slice values. The zero value is
// not usable; call New.
type Tree struct {
	root   node
	length int
}

// New returns an empty tree.
func New() *Tree {
	return &Tree{root: &leaf{}}
}

// Len returns the number of stored entries (duplicates counted).
func (t *Tree) Len() int { return t.length }

type node interface {
	// insert adds (key, val); if the node overflows it splits, returning
	// the new right sibling and the key that separates the two.
	insert(key string, val []byte) (right node, sep string)
	// firstLeafGE returns the leaf that may contain the first key >= k and
	// the entry index within it.
	firstLeafGE(k string) (*leaf, int)
	minDepthLeaf() *leaf
}

type leaf struct {
	keys []string
	vals [][]byte
	next *leaf
}

type inner struct {
	// keys[i] separates children[i] (keys < keys[i]) from children[i+1]
	// (keys >= keys[i]).
	keys     []string
	children []node
}

// upperBound returns the first index whose key is > k (so equal keys are
// kept insertion-ordered and new duplicates append after existing ones).
func upperBound(keys []string, k string) int {
	return sort.Search(len(keys), func(i int) bool { return keys[i] > k })
}

// lowerBound returns the first index whose key is >= k.
func lowerBound(keys []string, k string) int {
	return sort.Search(len(keys), func(i int) bool { return keys[i] >= k })
}

func (l *leaf) insert(key string, val []byte) (node, string) {
	i := upperBound(l.keys, key)
	l.keys = append(l.keys, "")
	copy(l.keys[i+1:], l.keys[i:])
	l.keys[i] = key
	l.vals = append(l.vals, nil)
	copy(l.vals[i+1:], l.vals[i:])
	l.vals[i] = val
	if len(l.keys) <= degree {
		return nil, ""
	}
	mid := len(l.keys) / 2
	right := &leaf{
		keys: append([]string(nil), l.keys[mid:]...),
		vals: append([][]byte(nil), l.vals[mid:]...),
		next: l.next,
	}
	l.keys = l.keys[:mid:mid]
	l.vals = l.vals[:mid:mid]
	l.next = right
	return right, right.keys[0]
}

func (l *leaf) firstLeafGE(k string) (*leaf, int) {
	return l, lowerBound(l.keys, k)
}

func (l *leaf) minDepthLeaf() *leaf { return l }

func (n *inner) childFor(k string) int {
	// First child whose separator is > k; equal separators route right,
	// matching leaf upperBound placement for duplicates spanning splits.
	return upperBound(n.keys, k)
}

func (n *inner) insert(key string, val []byte) (node, string) {
	ci := n.childFor(key)
	right, sep := n.children[ci].insert(key, val)
	if right == nil {
		return nil, ""
	}
	n.keys = append(n.keys, "")
	copy(n.keys[ci+1:], n.keys[ci:])
	n.keys[ci] = sep
	n.children = append(n.children, nil)
	copy(n.children[ci+2:], n.children[ci+1:])
	n.children[ci+1] = right
	if len(n.children) <= degree {
		return nil, ""
	}
	mid := len(n.keys) / 2
	sepUp := n.keys[mid]
	r := &inner{
		keys:     append([]string(nil), n.keys[mid+1:]...),
		children: append([]node(nil), n.children[mid+1:]...),
	}
	n.keys = n.keys[:mid:mid]
	n.children = n.children[: mid+1 : mid+1]
	return r, sepUp
}

func (n *inner) firstLeafGE(k string) (*leaf, int) {
	// Descend to the leftmost child that can contain a key >= k. A split
	// separator equals its right sibling's first key, and a duplicate run
	// may leave equal keys at the tail of the left sibling, so an equal
	// separator must route left. If the chosen leaf turns out to hold no
	// key >= k, callers continue through the leaf linked list.
	ci := lowerBound(n.keys, k)
	return n.children[ci].firstLeafGE(k)
}

func (n *inner) minDepthLeaf() *leaf { return n.children[0].minDepthLeaf() }

// Insert adds an entry. Duplicate keys are allowed; equal keys iterate in
// insertion order. The value slice is stored as-is (not copied).
func (t *Tree) Insert(key string, val []byte) {
	right, sep := t.root.insert(key, val)
	if right != nil {
		t.root = &inner{keys: []string{sep}, children: []node{t.root, right}}
	}
	t.length++
}

// Get returns all values stored under key, in insertion order. A miss
// returns nil.
func (t *Tree) Get(key string) [][]byte {
	var out [][]byte
	t.Ascend(key, key, func(_ string, v []byte) bool {
		out = append(out, v)
		return true
	})
	return out
}

// GetBatch returns the values stored under each key, aligned with keys (a
// miss yields a nil slice at that position). It is the multi-get behind
// lake.BatchFile: the keys are visited in sorted order and the cursor walks
// the leaf chain forward between adjacent keys, so a batch of k nearby keys
// costs one root-to-leaf descent plus k leaf probes instead of k descents.
// Keys may arrive unsorted and may repeat; repeated keys share the cached
// result.
func (t *Tree) GetBatch(keys []string) [][][]byte {
	out := make([][][]byte, len(keys))
	if len(keys) == 0 {
		return out
	}
	// Visit in sorted key order without disturbing the caller's slice.
	order := make([]int, len(keys))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(keys[a], keys[b]) })

	// Every key's values are sub-slices of one array, sized for the common
	// case of one value per key. When it grows, results already handed out
	// keep pointing into the array it outgrew, which still holds them.
	flat := make([][]byte, 0, len(keys))
	var cur *leaf // leaf holding the first entry >= the previous key
	last := -1    // index into keys of the previous distinct key
	for _, i := range order {
		k := keys[i]
		if last >= 0 && keys[last] == k {
			out[i] = out[last] // repeated key: share the result
			continue
		}
		var li int
		cur, li = t.seekFrom(cur, k)
		// Collect every value stored under k, walking the leaf chain for
		// duplicate runs that span leaves.
		start := len(flat)
	scan:
		for l, j := cur, li; l != nil; l, j = l.next, 0 {
			cur = l // advance the cursor past duplicate runs
			for ; j < len(l.keys); j++ {
				if l.keys[j] != k {
					break scan
				}
				flat = append(flat, l.vals[j])
			}
		}
		if len(flat) > start { // a miss stays nil
			out[i] = flat[start:len(flat):len(flat)]
		}
		last = i
	}
	return out
}

// seekFrom positions the cursor at the first entry >= k, reusing cur (the
// leaf the previous, smaller key landed in) when k is within reach — the
// same leaf or its immediate successor — and re-descending from the root
// otherwise.
func (t *Tree) seekFrom(cur *leaf, k string) (*leaf, int) {
	if cur != nil {
		if n := len(cur.keys); n > 0 && k <= cur.keys[n-1] {
			return cur, lowerBound(cur.keys, k)
		}
		if nxt := cur.next; nxt != nil {
			if n := len(nxt.keys); n > 0 && k <= nxt.keys[n-1] {
				return nxt, lowerBound(nxt.keys, k)
			}
		}
	}
	return t.root.firstLeafGE(k)
}

// Ascend calls fn for every entry with lo <= key <= hi in ascending key
// order (duplicates in insertion order). Iteration stops early if fn
// returns false.
func (t *Tree) Ascend(lo, hi string, fn func(key string, val []byte) bool) {
	l, i := t.root.firstLeafGE(lo)
	for l != nil {
		for ; i < len(l.keys); i++ {
			if l.keys[i] > hi {
				return
			}
			if !fn(l.keys[i], l.vals[i]) {
				return
			}
		}
		l = l.next
		i = 0
	}
}

// AscendAll calls fn for every entry in ascending key order.
func (t *Tree) AscendAll(fn func(key string, val []byte) bool) {
	l := t.root.minDepthLeaf()
	for l != nil {
		for i := 0; i < len(l.keys); i++ {
			if !fn(l.keys[i], l.vals[i]) {
				return
			}
		}
		l = l.next
	}
}

// Min returns the smallest key, or ok=false if the tree is empty.
func (t *Tree) Min() (key string, ok bool) {
	l := t.root.minDepthLeaf()
	for l != nil {
		if len(l.keys) > 0 {
			return l.keys[0], true
		}
		l = l.next
	}
	return "", false
}

// Height returns the number of levels in the tree (1 for a lone leaf). It
// is exposed for tests and stats.
func (t *Tree) Height() int {
	h := 1
	n := t.root
	for {
		in, ok := n.(*inner)
		if !ok {
			return h
		}
		h++
		n = in.children[0]
	}
}
