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

import "sort"

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
	c := t.Cursor()
	c.Visit(key, func(v []byte) { out = append(out, v) })
	return out
}

// Cursor serves a run of point lookups, such as a pointer batch: a lookup
// starts from the leaf the previous one ended in when the key lies in that
// leaf or its successor, and descends from the root otherwise, so nearby keys
// share descent work. Keys may come in any order and repeat. A cursor is
// valid until the tree changes.
type Cursor struct {
	t    *Tree
	leaf *leaf // where the previous lookup ended; nil before the first
}

// Cursor returns a cursor over t that descends for its first key.
func (t *Tree) Cursor() Cursor { return Cursor{t: t} }

// Visit calls fn with every value stored under key, in insertion order,
// walking the leaf chain for duplicate runs that span leaves.
func (c *Cursor) Visit(key string, fn func(val []byte)) {
	for l, i := c.seek(key); l != nil; l, i = l.next, 0 {
		c.leaf = l
		for ; i < len(l.keys); i++ {
			if l.keys[i] != key {
				return
			}
			fn(l.vals[i])
		}
	}
}

// seek positions at the first entry >= key. The remembered leaf serves only
// keys strictly above its first key: a smaller key lies in an earlier leaf,
// and an equal key's duplicate run may begin in one (a split leaves equal
// keys on both sides).
func (c *Cursor) seek(key string) (*leaf, int) {
	if l := c.leaf; l != nil && len(l.keys) > 0 && l.keys[0] < key {
		if key <= l.keys[len(l.keys)-1] {
			return l, lowerBound(l.keys, key)
		}
		if n := l.next; n != nil && len(n.keys) > 0 && key <= n.keys[len(n.keys)-1] {
			return n, lowerBound(n.keys, key)
		}
	}
	return c.t.root.firstLeafGE(key)
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
