package lake

import (
	"testing"
	"testing/quick"

	"lakeharbor/internal/keycodec"
)

func TestHashPartitionerInRange(t *testing.T) {
	p := HashPartitioner{}
	if err := quick.Check(func(key string, n uint8) bool {
		parts := int(n%64) + 1
		got := p.Partition(key, parts)
		return got >= 0 && got < parts
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestHashPartitionerDeterministic(t *testing.T) {
	p := HashPartitioner{}
	for _, k := range []string{"", "a", "orderkey-12345"} {
		if p.Partition(k, 16) != p.Partition(k, 16) {
			t.Errorf("non-deterministic partition for %q", k)
		}
	}
}

func TestHashPartitionerSpreads(t *testing.T) {
	p := HashPartitioner{}
	const parts = 8
	counts := make([]int, parts)
	for i := int64(0); i < 4000; i++ {
		counts[p.Partition(keycodec.Int64(i), parts)]++
	}
	for i, c := range counts {
		if c < 200 { // expected 500 per partition; gross skew indicates a bug
			t.Errorf("partition %d badly underfilled: %d records", i, c)
		}
	}
}

func TestHashPartitionerSinglePartition(t *testing.T) {
	p := HashPartitioner{}
	if got := p.Partition("anything", 1); got != 0 {
		t.Errorf("Partition(n=1) = %d, want 0", got)
	}
	if got := p.Partition("anything", 0); got != 0 {
		t.Errorf("Partition(n=0) = %d, want 0", got)
	}
}

func TestRangePartitioner(t *testing.T) {
	// Bounds at 10 and 20: partitions are (-inf,10), [10,20), [20,inf).
	rp := NewRangePartitioner(keycodec.Int64(10), keycodec.Int64(20))
	cases := []struct {
		v    int64
		want int
	}{{-5, 0}, {0, 0}, {9, 0}, {10, 1}, {15, 1}, {19, 1}, {20, 2}, {100, 2}}
	for _, c := range cases {
		if got := rp.Partition(keycodec.Int64(c.v), 3); got != c.want {
			t.Errorf("Partition(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestRangePartitionerSortsBounds(t *testing.T) {
	rp := NewRangePartitioner(keycodec.Int64(20), keycodec.Int64(10))
	if rp.Partition(keycodec.Int64(15), 3) != 1 {
		t.Error("bounds were not sorted")
	}
}

func TestRangePartitionerMonotone(t *testing.T) {
	rp := NewRangePartitioner(keycodec.Int64(0), keycodec.Int64(100), keycodec.Int64(1000))
	if err := quick.Check(func(a, b int64) bool {
		if a > b {
			a, b = b, a
		}
		return rp.Partition(keycodec.Int64(a), 4) <= rp.Partition(keycodec.Int64(b), 4)
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestRangePartitionerOverlapping(t *testing.T) {
	rp := NewRangePartitioner(keycodec.Int64(10), keycodec.Int64(20))
	got := rp.PartitionsOverlapping(keycodec.Int64(5), keycodec.Int64(15), 3)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("PartitionsOverlapping = %v, want [0 1]", got)
	}
	got = rp.PartitionsOverlapping(keycodec.Int64(12), keycodec.Int64(12), 3)
	if len(got) != 1 || got[0] != 1 {
		t.Errorf("point overlap = %v, want [1]", got)
	}
}

func TestPointerString(t *testing.T) {
	p := Pointer{File: "part", PartKey: "k", Key: "k"}
	if s := p.String(); s == "" {
		t.Error("empty String()")
	}
	b := Pointer{File: "part", NoPart: true, Key: "a", EndKey: "b"}
	if !b.IsRange() {
		t.Error("EndKey set but IsRange is false")
	}
	if s := b.String(); s == "" {
		t.Error("empty String() for broadcast range")
	}
}

func TestRecordClone(t *testing.T) {
	r := Record{Key: "k", Data: []byte("payload")}
	c := r.Clone()
	c.Data[0] = 'X'
	if r.Data[0] != 'p' {
		t.Error("Clone shares the data buffer")
	}
}

type fixedPartFile struct {
	File
	n int
	p Partitioner
}

func (f fixedPartFile) NumPartitions() int       { return f.n }
func (f fixedPartFile) Partitioner() Partitioner { return f.p }

func TestResolvePartition(t *testing.T) {
	f := fixedPartFile{n: 4, p: HashPartitioner{}}
	part, bc := ResolvePartition(f, &Pointer{PartKey: "k"})
	if bc {
		t.Error("unexpected broadcast")
	}
	if want := (HashPartitioner{}).Partition("k", 4); part != want {
		t.Errorf("part = %d, want %d", part, want)
	}
	if _, bc := ResolvePartition(f, &Pointer{NoPart: true}); !bc {
		t.Error("NoPart pointer must resolve to broadcast")
	}
}
