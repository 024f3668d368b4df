package lake

import (
	"bytes"
	"testing"
)

// within reports whether s's bytes lie inside buf's backing array.
func within(s, buf []byte) bool {
	if len(s) == 0 || len(buf) == 0 {
		return false
	}
	for i := range buf {
		if &buf[i] == &s[0] {
			return true
		}
	}
	return false
}

// FuzzSegmentsRoundTrip fuzzes the segment-list codec on both of its paths:
// arbitrary payloads — empty, holding 0x00, ending in what looks like a
// terminator (0x00 0x01) or an escape (0x00 0xFF) — survive EncodeSegments
// and AppendSegment → DecodeSegments byte for byte; a payload without 0x00
// comes back as a view into the list (the aliasing path) that cannot be
// appended into it, one with 0x00 as fresh memory (the decoding path); and
// decoding never writes to the list. Every Arena form equals its allocating
// form, cut from an arena the input fills to near a chunk's end, so a value
// fits, starts a new chunk or gets its own allocation. The fourth argument is
// decoded as if it were a list: it must fail cleanly or re-encode to itself,
// and is the prefix of a PrefixRange.
func FuzzSegmentsRoundTrip(f *testing.F) {
	f.Add([]byte("1|2|1995|310.00"), []byte("2|Customer#2|7"), []byte(""), []byte("a\x00\x01b\x00\x01"))
	f.Add([]byte{0x00}, []byte{0x00, 0x01}, []byte{0x00, 0xFF}, []byte{0x00, 0xFF, 0x00, 0x01})
	f.Add([]byte{0x01, 0x00}, []byte{0xFF, 0x00, 0x00}, []byte("plain"), []byte{0x00, 0x02})
	f.Add([]byte("a\x00\x01"), []byte("b\x00\xff"), []byte{0x00, 0x01, 0x00, 0xFF}, []byte("unterminated"))
	f.Fuzz(func(t *testing.T, a, b, c, raw []byte) {
		segs := [][]byte{a, b, c}
		list := EncodeSegments(segs...)
		if step := AppendSegment(AppendSegment(AppendSegment(nil, a), b), c); !bytes.Equal(step, list) {
			t.Fatalf("AppendSegment built %q, EncodeSegments %q", step, list)
		}
		before := bytes.Clone(list)
		got, err := DecodeSegments(list)
		if err != nil || len(got) != len(segs) {
			t.Fatalf("DecodeSegments(%q) = %d segments, %v", list, len(got), err)
		}
		for i, want := range segs {
			if !bytes.Equal(got[i], want) {
				t.Fatalf("segment %d: got %q, want %q", i, got[i], want)
			}
			escaped := bytes.IndexByte(want, 0x00) >= 0
			if len(want) > 0 && within(got[i], list) == escaped {
				t.Fatalf("segment %d (%q): aliases the list = %v, holds 0x00 = %v", i, want, !escaped, escaped)
			}
			_ = append(got[i], 'X', 'Y', 'Z') // must land in fresh memory, never in list
		}
		if !bytes.Equal(list, before) {
			t.Fatalf("payload changed under DecodeSegments: %q, was %q", list, before)
		}

		var ar Arena
		pre := max(arenaChunk-len(list)/2-len(raw)%8, 0)
		ar.Cut(append(ar.Tail(pre), make([]byte, pre)...))
		if got := ar.EncodeSegments(segs...); !bytes.Equal(got, list) {
			t.Fatalf("Arena.EncodeSegments built %q, EncodeSegments %q", got, list)
		}
		if got, want := ar.Cut(ar.Join(a, b)), AppendSegment(a, b); !bytes.Equal(got, want) {
			t.Fatalf("Arena.Join built %q, AppendSegment %q", got, want)
		}
		lo, hi := ar.PrefixRange(Key(raw))
		if wantLo, wantHi := PrefixRange(Key(raw)); lo != wantLo || hi != wantHi {
			t.Fatalf("Arena.PrefixRange = [%x, %x], PrefixRange [%x, %x]", lo, hi, wantLo, wantHi)
		}

		rawBefore := bytes.Clone(raw)
		if parts, err := DecodeSegments(raw); err == nil {
			if again := EncodeSegments(parts...); !bytes.Equal(again, raw) {
				t.Fatalf("DecodeSegments accepted %q, which re-encodes to %q", raw, again)
			}
		}
		if !bytes.Equal(raw, rawBefore) {
			t.Fatalf("payload changed under DecodeSegments: %q, was %q", raw, rawBefore)
		}
	})
}
