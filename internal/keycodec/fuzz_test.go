package keycodec

import (
	"math"
	"testing"
)

// FuzzKeycodecRoundTrip fuzzes the package's two contracts at once:
// encode/decode identity for every scalar codec, and the order-preservation
// guarantee (byte order of encodings ⇔ value order) that the B-tree, the
// range partitioner, and every range dereference silently rely on —
// including across composite (tuple) keys.
func FuzzKeycodecRoundTrip(f *testing.F) {
	f.Add(int64(0), int64(1), uint64(0), uint64(1), 0.0, 1.0, "", "a")
	f.Add(int64(-1), int64(math.MaxInt64), uint64(math.MaxUint64), uint64(7), -1.5, math.Inf(1), "a\x00b", "a\x00")
	f.Add(int64(math.MinInt64), int64(-1), uint64(1<<63), uint64(1<<63-1), math.Copysign(0, -1), 0.0, "ab", "a\xff")
	f.Add(int64(42), int64(42), uint64(42), uint64(42), math.NaN(), -math.MaxFloat64, "same", "same")
	f.Fuzz(func(t *testing.T, a, b int64, ua, ub uint64, fa, fb float64, sa, sb string) {
		// int64: identity and full order iff.
		ea, eb := Int64(a), Int64(b)
		if got, err := DecodeInt64(ea); err != nil || got != a {
			t.Fatalf("DecodeInt64(Int64(%d)) = %d, %v", a, got, err)
		}
		if (a < b) != (ea < eb) {
			t.Errorf("int64 order broken: %d < %d is %v but enc order is %v", a, b, a < b, ea < eb)
		}

		// uint64: identity and full order iff.
		eua, eub := Uint64(ua), Uint64(ub)
		if got, err := DecodeUint64(eua); err != nil || got != ua {
			t.Fatalf("DecodeUint64(Uint64(%d)) = %d, %v", ua, got, err)
		}
		if (ua < ub) != (eua < eub) {
			t.Errorf("uint64 order broken: %d vs %d", ua, ub)
		}

		// string: identity (with exact consumed length) and full order iff.
		esa, esb := String(sa), String(sb)
		got, n, err := DecodeString(esa)
		if err != nil || got != sa || n != len(esa) {
			t.Fatalf("DecodeString(String(%q)) = %q (n=%d, len=%d), %v", sa, got, n, len(esa), err)
		}
		if own, m, err := AppendDecoded([]byte("pre"), []byte(esa)); err != nil || string(own) != "pre"+sa || m != n {
			t.Fatalf("AppendDecoded(pre, String(%q)) = %q (n=%d, want %d), %v", sa, own, m, n, err)
		}
		if (sa < sb) != (esa < esb) {
			t.Errorf("string order broken: %q < %q is %v but enc order is %v", sa, sb, sa < sb, esa < esb)
		}

		// float64: identity (NaN stays NaN, signed zero keeps its sign), and
		// order preservation. The encoding is a total order over IEEE-754
		// bit patterns, so -0 and +0 encode distinctly (adjacent) and NaN
		// sorts after +Inf: assert the two implications valid under that
		// total order instead of a full iff against Go's partial <.
		efa, efb := Float64(fa), Float64(fb)
		dfa, err := DecodeFloat64(efa)
		if err != nil {
			t.Fatalf("DecodeFloat64(Float64(%v)): %v", fa, err)
		}
		if math.IsNaN(fa) {
			if !math.IsNaN(dfa) {
				t.Fatalf("NaN round-tripped to %v", dfa)
			}
		} else if dfa != fa || math.Signbit(dfa) != math.Signbit(fa) {
			t.Fatalf("DecodeFloat64(Float64(%v)) = %v", fa, dfa)
		}
		if !math.IsNaN(fa) && !math.IsNaN(fb) {
			if fa < fb && !(efa < efb) {
				t.Errorf("float64 order broken: %v < %v but encodings are not ordered", fa, fb)
			}
			if efa < efb && fa > fb {
				t.Errorf("float64 order broken: enc(%v) < enc(%v) but value order is reversed", fa, fb)
			}
		}

		// Composite keys: tuple concatenation must order like the
		// lexicographic (string, int64) pair, and decode element-wise.
		ta := Tuple(esa, ea)
		tb := Tuple(esb, eb)
		wantLess := sa < sb || (sa == sb && a < b)
		if (ta < tb) != wantLess {
			t.Errorf("composite order broken: (%q,%d) vs (%q,%d): want less=%v, enc less=%v",
				sa, a, sb, b, wantLess, ta < tb)
		}
		s1, n1, err := DecodeString(ta)
		if err != nil || s1 != sa {
			t.Fatalf("composite first element: %q, %v", s1, err)
		}
		v1, err := DecodeInt64(ta[n1:])
		if err != nil || v1 != a {
			t.Fatalf("composite second element: %d, %v", v1, err)
		}
	})
}
