package lake

import (
	"bytes"
	"strings"
	"testing"
	"unsafe"

	"lakeharbor/internal/keycodec"
)

// inChunk reports whether b's bytes lie inside a's current chunk.
func inChunk(a *Arena, b []byte) bool {
	return len(b) > 0 && within(b, a.chunk[:cap(a.chunk)])
}

// TestArenaSlicesAreCapClipped: every []byte an arena cuts has its capacity
// clipped, so an append by its holder lands in fresh memory and leaves the
// values cut after it in the chunk untouched.
func TestArenaSlicesAreCapClipped(t *testing.T) {
	var a Arena
	carry := a.EncodeSegments([]byte("1|2|1995"), []byte("2|Customer#2|7"))
	joined := a.Cut(a.Join(carry, []byte("1|3|155")))
	_, hi := a.PrefixRange(keycodec.Int64(75))
	key := a.CutKey(keycodec.AppendInt64(a.Tail(8), 7))
	want := [][]byte{bytes.Clone(carry), bytes.Clone(joined), []byte(hi), []byte(key)}
	for i, b := range [][]byte{carry, joined} {
		if cap(b) != len(b) || !inChunk(&a, b) {
			t.Fatalf("value %d: len %d cap %d, in the chunk %v; want a clipped cut", i, len(b), cap(b), inChunk(&a, b))
		}
		if grown := append(b, 0xEE, 0xEE, 0xEE); inChunk(&a, grown) {
			t.Fatalf("value %d: an append landed in the chunk", i)
		}
	}
	for i, b := range [][]byte{carry, joined, []byte(hi), []byte(key)} {
		if !bytes.Equal(b, want[i]) {
			t.Fatalf("value %d reads %q after the appends, want %q", i, b, want[i])
		}
	}
}

// TestArenaChunkBoundaries: a value larger than the room left starts a new
// chunk and leaves the values cut from the old one as they were; a value
// larger than a whole chunk gets one exact allocation of its own and leaves
// the current chunk as it was; a value that outgrows the room Tail promised
// moves to its own memory and commits nothing.
func TestArenaChunkBoundaries(t *testing.T) {
	var a Arena
	fill := a.Cut(append(a.Tail(arenaChunk-10), bytes.Repeat([]byte{'f'}, arenaChunk-10)...))
	old := a.chunk

	seg := []byte("payload-longer-than-ten-bytes")
	list := a.EncodeSegments(seg)
	if unsafe.SliceData(a.chunk) == unsafe.SliceData(old) || len(a.chunk) != len(list) || !inChunk(&a, list) {
		t.Fatalf("a %d-byte value with 10 bytes left: chunk %d bytes, value in it %v; want a new chunk holding only it",
			len(list), len(a.chunk), inChunk(&a, list))
	}
	if !bytes.Equal(fill, bytes.Repeat([]byte{'f'}, arenaChunk-10)) {
		t.Fatal("the old chunk's value changed when a new chunk started")
	}

	used := len(a.chunk)
	huge := bytes.Repeat([]byte{'h'}, arenaChunk+1)
	big := a.EncodeSegments(huge)
	if len(a.chunk) != used || inChunk(&a, big) || cap(big) != len(big) {
		t.Fatalf("a value larger than a chunk: chunk %d → %d bytes, value in it %v, cap %d for %d bytes",
			used, len(a.chunk), inChunk(&a, big), cap(big), len(big))
	}
	if got, err := DecodeSegments(big); err != nil || len(got) != 1 || !bytes.Equal(got[0], huge) {
		t.Fatalf("the oversized value does not decode: %v", err)
	}
	if small := a.EncodeSegments([]byte("x")); !inChunk(&a, small) || len(a.chunk) != used+len(small) {
		t.Fatal("the chunk did not go on where it was after an oversized value")
	}

	// A hint too small for what is appended at the end of a chunk.
	room := cap(a.chunk) - len(a.chunk) - 4
	a.Cut(append(a.Tail(room), make([]byte, room)...))
	used = len(a.chunk)
	over := a.Cut(append(a.Tail(4), "twelve bytes"...))
	if string(over) != "twelve bytes" || inChunk(&a, over) || len(a.chunk) != used {
		t.Fatalf("an outgrown tail: %q, in the chunk %v, chunk %d → %d bytes", over, inChunk(&a, over), used, len(a.chunk))
	}
}

// TestArenaFormsMatchOneShot: every arena form equals its allocating form,
// cut at every offset of a chunk's last bytes, and a nil arena is the
// allocating form.
func TestArenaFormsMatchOneShot(t *testing.T) {
	segs := [][]byte{[]byte("1|2|1995"), {0x00, 0x01, 0x00}, nil, []byte("4|Supplier#4")}
	prefix := keycodec.Tuple(keycodec.Int64(7), keycodec.String("a\x00b"))
	for left := 0; left < 64; left++ {
		var a Arena
		a.Cut(append(a.Tail(arenaChunk-left), make([]byte, arenaChunk-left)...))
		if got := a.EncodeSegments(segs...); !bytes.Equal(got, EncodeSegments(segs...)) {
			t.Fatalf("%d left: EncodeSegments %q, one-shot %q", left, got, EncodeSegments(segs...))
		}
		if got := a.Cut(a.Join(segs[0], segs[1])); !bytes.Equal(got, AppendSegment(segs[0], segs[1])) {
			t.Fatalf("%d left: Join %q, AppendSegment %q", left, got, AppendSegment(segs[0], segs[1]))
		}
		lo, hi := a.PrefixRange(prefix)
		if wantLo, wantHi := PrefixRange(prefix); lo != wantLo || hi != wantHi {
			t.Fatalf("%d left: PrefixRange [%x, %x], one-shot [%x, %x]", left, lo, hi, wantLo, wantHi)
		}
	}
	var none *Arena
	if got := none.EncodeSegments(); got != nil {
		t.Fatalf("EncodeSegments of nothing = %q, want nil", got)
	}
	if _, hi := none.PrefixRange("p"); hi != "p"+strings.Repeat("\xff", 64) {
		t.Fatalf("nil arena PrefixRange hi = %x", hi)
	}
}
