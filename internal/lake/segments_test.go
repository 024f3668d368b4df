package lake

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"lakeharbor/internal/keycodec"
)

func TestSegmentsRoundTrip(t *testing.T) {
	cases := [][][]byte{
		{},
		{[]byte("one")},
		{[]byte("a"), []byte("b"), []byte("c")},
		{nil, []byte(""), []byte("x")},
		{[]byte{0x00, 0x01, 0xFF}, []byte("plain")},
	}
	for _, segs := range cases {
		enc := EncodeSegments(segs...)
		got, err := DecodeSegments(enc)
		if err != nil {
			t.Fatalf("DecodeSegments: %v", err)
		}
		if len(got) != len(segs) {
			t.Fatalf("got %d segments, want %d", len(got), len(segs))
		}
		for i := range segs {
			if !bytes.Equal(got[i], segs[i]) {
				t.Fatalf("segment %d: %q != %q", i, got[i], segs[i])
			}
		}
	}
}

func TestSegmentsRoundTripQuick(t *testing.T) {
	f := func(a, b, c []byte) bool {
		enc := EncodeSegments(a, b, c)
		got, err := DecodeSegments(enc)
		if err != nil || len(got) != 3 {
			return false
		}
		return bytes.Equal(got[0], a) && bytes.Equal(got[1], b) && bytes.Equal(got[2], c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAppendSegment(t *testing.T) {
	list := EncodeSegments([]byte("first"))
	list2 := AppendSegment(list, []byte("second"))
	// AppendSegment must not mutate its input.
	got1, err := DecodeSegments(list)
	if err != nil || len(got1) != 1 {
		t.Fatalf("original list mutated: %v %v", got1, err)
	}
	got2, err := DecodeSegments(list2)
	if err != nil || len(got2) != 2 || string(got2[1]) != "second" {
		t.Fatalf("appended list wrong: %v %v", got2, err)
	}
	// Appending to an empty list yields a one-segment list.
	single, err := DecodeSegments(AppendSegment(nil, []byte("only")))
	if err != nil || len(single) != 1 || string(single[0]) != "only" {
		t.Fatalf("append to nil: %v %v", single, err)
	}
}

func TestDecodeSegmentsErrors(t *testing.T) {
	if _, err := DecodeSegments([]byte("unterminated")); err == nil {
		t.Error("unterminated segment accepted")
	}
	if _, err := DecodeSegments([]byte{0x00, 0x02}); err == nil {
		t.Error("bad escape accepted")
	}
}

func TestPrefixRangeCoversExactlyPrefix(t *testing.T) {
	prefix := keycodec.Int64(42)
	lo, hi := PrefixRange(prefix)
	inside := []Key{
		prefix,
		keycodec.Tuple(prefix, keycodec.Int64(0)),
		keycodec.Tuple(prefix, keycodec.Int64(1<<40)),
		prefix + "\xff\xff",
	}
	outside := []Key{
		keycodec.Int64(41),
		keycodec.Int64(43),
		keycodec.Tuple(keycodec.Int64(43), keycodec.Int64(0)),
	}
	for _, k := range inside {
		if k < lo || k > hi {
			t.Errorf("key %x escaped prefix range", k)
		}
	}
	for _, k := range outside {
		if k >= lo && k <= hi {
			t.Errorf("foreign key %x inside prefix range", k)
		}
	}
}

func TestPrefixRangeQuick(t *testing.T) {
	f := func(p int64, suffix string) bool {
		prefix := keycodec.Int64(p)
		lo, hi := PrefixRange(prefix)
		k := prefix + keycodec.String(suffix)
		return k >= lo && k <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPrefixRangeAllFF(t *testing.T) {
	prefix := strings.Repeat("\xff", 4)
	lo, hi := PrefixRange(prefix)
	k := prefix + "suffix"
	if k < lo || k > hi {
		t.Error("all-0xFF prefix range does not cover its keys")
	}
}

// TestPrefixRangePinned: hi is the prefix and 64 0xFF bytes, byte for byte
// what the strings.Repeat form built, and a call allocates hi alone.
func TestPrefixRangePinned(t *testing.T) {
	for _, prefix := range []Key{"", keycodec.Int64(75), keycodec.String("medicine"), strings.Repeat("\xff", 9)} {
		lo, hi := PrefixRange(prefix)
		if lo != prefix || hi != prefix+strings.Repeat("\xff", 64) {
			t.Errorf("PrefixRange(%x) = [%x, %x]", prefix, lo, hi)
		}
	}
	prefix := keycodec.Int64(75)
	if got := testing.AllocsPerRun(100, func() { _, sinkKey = PrefixRange(prefix) }); got != 1 {
		t.Errorf("PrefixRange allocates %.0f times, want 1", got)
	}
}

func TestIndexEntryRoundTrip(t *testing.T) {
	part, pk := keycodec.Int64(7), keycodec.Tuple(keycodec.Int64(7), keycodec.Int64(3))
	gotPart, gotPK, err := DecodeIndexEntry(EncodeIndexEntry(part, pk))
	if err != nil {
		t.Fatal(err)
	}
	if gotPart != part || gotPK != pk {
		t.Error("index entry round trip mismatch")
	}
}

func TestIndexEntryRoundTripQuick(t *testing.T) {
	f := func(part, pk string) bool {
		p, k, err := DecodeIndexEntry(EncodeIndexEntry(part, pk))
		return err == nil && p == part && k == pk
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeIndexEntryErrors(t *testing.T) {
	if _, _, err := DecodeIndexEntry([]byte("garbage")); err == nil {
		t.Error("garbage index entry accepted")
	}
	// Trailing bytes after the two fields are an error.
	bad := append(EncodeIndexEntry("a", "b"), 'x', 0x00, 0x01)
	if _, _, err := DecodeIndexEntry(bad); err == nil {
		t.Error("index entry with trailing bytes accepted")
	}
	if _, _, err := DecodeIndexEntry(nil); err == nil {
		t.Error("empty index entry accepted")
	}
}

// indexEntryKeys is a seeded key set of every shape an index entry holds:
// int64 keys (0x00-heavy, so escaped), tuples of them, plain strings, empty
// and 0x00-bearing ones.
func indexEntryKeys() []Key {
	rng := rand.New(rand.NewSource(24))
	keys := []Key{"", "a", "I10", "a\x00b", "\x00", "\x00\x01", "\x00\xff", strings.Repeat("k\x00", 40)}
	for i := 0; i < 64; i++ {
		n := rng.Int63n(1 << uint(1+rng.Intn(62)))
		keys = append(keys, keycodec.Int64(n), keycodec.Int64(-n), keycodec.Tuple(keycodec.Int64(n), keycodec.Int64(int64(i))))
	}
	return keys
}

// TestEncodeIndexEntryBytes: the single-buffer encoder writes exactly the
// bytes of the tuple-of-strings expression it replaced — entries already in
// snapshots and WALs stay readable, new ones stay identical.
func TestEncodeIndexEntryBytes(t *testing.T) {
	keys := indexEntryKeys()
	for _, part := range keys {
		for _, pk := range keys {
			want := []byte(keycodec.Tuple(keycodec.String(part), keycodec.String(pk)))
			got := EncodeIndexEntry(part, pk)
			if !bytes.Equal(got, want) {
				t.Fatalf("EncodeIndexEntry(%q, %q) = %x, want %x", part, pk, got, want)
			}
			p, k, err := DecodeIndexEntry(got)
			if err != nil || p != part || k != pk {
				t.Fatalf("DecodeIndexEntry(%x) = %q, %q, %v; want %q, %q", got, p, k, err, part, pk)
			}
			// The keys own their memory: pointers built from them outlive
			// the index record.
			for i := range got {
				got[i] ^= 0x5a
			}
			if p != part || k != pk {
				t.Fatalf("keys %q, %q changed when the entry's bytes did", part, pk)
			}
		}
	}
}

// TestIndexEntryAllocationBudgets: an entry is built in one buffer and
// decodes to both its keys in one allocation — the one-shot arena's chunk —
// escaped or not, equal halves (a file partitioned by its own key) or not.
func TestIndexEntryAllocationBudgets(t *testing.T) {
	for _, c := range []struct {
		what     string
		part, pk Key
		budget   float64
	}{
		{"int64, equal halves", keycodec.Int64(7), keycodec.Int64(7), 1},
		{"int64, unequal halves", keycodec.Int64(7), keycodec.Int64(9), 1},
		{"string, equal halves", "Customer#000000002", "Customer#000000002", 1},
		{"string, unequal halves", "Customer#000000002", "Customer#000000003", 1},
	} {
		entry := EncodeIndexEntry(c.part, c.pk)
		if got := testing.AllocsPerRun(200, func() {
			if p, k, err := DecodeIndexEntry(entry); err != nil || p != c.part || k != c.pk {
				t.Fatal(p, k, err)
			}
		}); got > c.budget {
			t.Errorf("%s: DecodeIndexEntry allocates %.0f times, budget %.0f", c.what, got, c.budget)
		}
		if got := testing.AllocsPerRun(200, func() { sinkList = EncodeIndexEntry(c.part, c.pk) }); got > 1 {
			t.Errorf("%s: EncodeIndexEntry allocates %.0f times, budget 1", c.what, got)
		}
	}
}

// TestKeyArenaKeysOutliveLaterDecodes: keys cut from one arena survive every
// later decode into it — across several chunk rollovers — and never alias
// the entry they came from: each entry is scribbled over right after it is
// decoded, and every key is checked at the end. A bad entry leaves the arena
// as it was.
func TestKeyArenaKeysOutliveLaterDecodes(t *testing.T) {
	keys := indexEntryKeys()
	var a Arena
	type decoded struct{ part, pk, wantPart, wantPK Key }
	var got []decoded
	chunks := 0
	for round := 0; chunks < 3; round++ {
		for i, part := range keys {
			pk := keys[(i+round)%len(keys)]
			entry := EncodeIndexEntry(part, pk)
			used := len(a.chunk)
			p, k, err := a.DecodeIndexEntry(entry)
			if err != nil {
				t.Fatal(err)
			}
			if len(a.chunk) < used { // cut from a new chunk
				chunks++
			}
			for j := range entry {
				entry[j] = 0xA5
			}
			got = append(got, decoded{p, k, part, pk})
		}
		used := len(a.chunk)
		if _, _, err := a.DecodeIndexEntry([]byte("not an entry")); err == nil || len(a.chunk) != used {
			t.Fatalf("bad entry: error %v, arena %d → %d bytes", err, used, len(a.chunk))
		}
	}
	for i, d := range got {
		if d.part != d.wantPart || d.pk != d.wantPK {
			t.Fatalf("decode %d: keys %q, %q; want %q, %q", i, d.part, d.pk, d.wantPart, d.wantPK)
		}
	}
}

// q5Row is a Q5′ result: {order ⊕ customer ⊕ lineitem ⊕ supplier}.
var q5Row = [][]byte{
	[]byte("1|2|1995|310.00"),
	[]byte("2|Customer#000000002|7|4520.11|BUILDING"),
	[]byte("1|3|155|4|17|21168.23"),
	[]byte("4|Supplier#000000004|7|4641.08"),
}

// TestSegmentAllocationBudgets: a list of escape-free payloads decodes into
// one slice of views, and appending a segment builds the new list in one
// allocation.
func TestSegmentAllocationBudgets(t *testing.T) {
	list := EncodeSegments(q5Row...)
	if got := testing.AllocsPerRun(200, func() {
		if segs, err := DecodeSegments(list); err != nil || len(segs) != len(q5Row) {
			t.Fatal(segs, err)
		}
	}); got > 1 {
		t.Errorf("DecodeSegments allocates %.0f times without escapes, budget 1", got)
	}
	carry := EncodeSegments(q5Row[:3]...)
	if got := testing.AllocsPerRun(200, func() {
		if out := AppendSegment(carry, q5Row[3]); len(out) != len(list) {
			t.Fatal(len(out))
		}
	}); got != 1 {
		t.Errorf("AppendSegment allocates %.0f times, want exactly 1", got)
	}
}

var sinkSegs [][]byte
var sinkList []byte

func BenchmarkDecodeSegments(b *testing.B) {
	list := EncodeSegments(q5Row...)
	b.ReportAllocs()
	b.SetBytes(int64(len(list)))
	for i := 0; i < b.N; i++ {
		sinkSegs, _ = DecodeSegments(list)
	}
}

func BenchmarkAppendSegment(b *testing.B) {
	carry := EncodeSegments(q5Row[:3]...)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkList = AppendSegment(carry, q5Row[3])
	}
}

var sinkKey Key

func BenchmarkDecodeIndexEntry(b *testing.B) {
	for _, c := range []struct {
		name     string
		part, pk Key
	}{
		{"equal", keycodec.Int64(4211), keycodec.Int64(4211)},
		{"unequal", keycodec.Int64(4211), keycodec.Tuple(keycodec.Int64(4211), keycodec.Int64(3))},
	} {
		entry := EncodeIndexEntry(c.part, c.pk)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(entry)))
			for i := 0; i < b.N; i++ {
				_, sinkKey, _ = DecodeIndexEntry(entry)
			}
		})
	}
}
