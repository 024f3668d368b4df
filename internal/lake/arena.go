package lake

import "unsafe"

// arenaChunk is the size of the chunks an Arena cuts values from.
const arenaChunk = 4096

// Arena owns the byte strings a task's built-in functions make — keys decoded
// from index entries or encoded from a field, prefix-range ends, carried
// context, joined records: each is appended into a fixed-size chunk and cut
// from it, so a task's values cost a chunk now and then instead of an
// allocation each. A chunk is only appended to, never grown in place or
// reused, so a value's bytes are never written again once cut: a value lives
// as long as anything references it, the collector the chunk's only owner,
// and an arena may go on serving later tasks where its last one stopped.
// Every []byte cut has its capacity clipped, so a holder's append lands in
// fresh memory, never in the chunk. A value larger than a whole chunk gets
// one exact allocation of its own. A nil arena cuts every value from its own
// exact allocation (one-shot).
type Arena struct{ chunk []byte }

// Tail returns the arena's uncommitted room — at least n bytes of it, a new
// chunk being started when the current one has less left — for the caller to
// append one value to and then Cut. n need not be exact: a value that
// outgrows the room moves to its own allocation, which Cut hands on as is.
// Bytes appended but never cut are scratch: the next Tail hands them out
// again. A nil arena, or an n larger than both the room left and a whole
// chunk, returns fresh memory of capacity n.
func (a *Arena) Tail(n int) []byte {
	if a == nil {
		return make([]byte, 0, n)
	}
	if cap(a.chunk)-len(a.chunk) < n {
		if n > arenaChunk {
			return make([]byte, 0, n)
		}
		a.chunk = make([]byte, 0, arenaChunk)
	}
	return a.chunk[len(a.chunk):]
}

// Cut commits b, appended onto the slice the last Tail returned, and returns
// it with its capacity clipped. A b that does not start at the chunk's
// uncommitted room already owns its memory and is only clipped.
func (a *Arena) Cut(b []byte) []byte {
	if a != nil && len(b) > 0 && cap(a.chunk) > len(a.chunk) &&
		unsafe.SliceData(b) == unsafe.SliceData(a.chunk[len(a.chunk):]) {
		a.chunk = a.chunk[:len(a.chunk)+len(b)]
	}
	return b[:len(b):len(b)]
}

// CutKey is Cut returning the value as a Key, sharing its bytes.
func (a *Arena) CutKey(b []byte) Key {
	b = a.Cut(b)
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// EncodeSegments packs payloads into one segment-list payload cut from a.
func (a *Arena) EncodeSegments(segs ...[]byte) []byte {
	if len(segs) == 0 {
		return nil
	}
	return a.Cut(appendSegments(a.Tail(segmentsLen(segs...)), segs...))
}

// Join builds list with seg appended as one more segment in a's uncommitted
// room, without cutting it: the caller Cuts what it keeps, and what it drops
// is scratch the next Tail hands out again.
func (a *Arena) Join(list, seg []byte) []byte {
	return appendSegments(append(a.Tail(len(list)+segmentsLen(seg)), list...), seg)
}

// PrefixRange is lake.PrefixRange with hi cut from a.
func (a *Arena) PrefixRange(prefix Key) (lo, hi Key) {
	return prefix, a.CutKey(append(append(a.Tail(len(prefix)+len(prefixPad)), prefix...), prefixPad...))
}
