package trace

import (
	"strings"
	"testing"
)

func TestBatchCounters(t *testing.T) {
	tr := testTrace()
	tr.AddBatch(0, 1)
	tr.AddBatch(0, 7)
	tr.AddBatchSplit(0)

	s := tr.Snapshot(nil)
	st := s.Stages[0]
	if st.Batches != 2 || st.BatchedPtrs != 8 || st.BatchSplits != 1 {
		t.Errorf("stage 0 batch stats = %+v", st)
	}
	if got := st.MeanBatch(); got != 4 {
		t.Errorf("MeanBatch = %v, want 4", got)
	}
	if s.Stages[1].MeanBatch() != 0 {
		t.Errorf("stage without batches has MeanBatch %v", s.Stages[1].MeanBatch())
	}
	if s.TotalBatches() != 2 || s.TotalBatchedPtrs() != 8 {
		t.Errorf("totals = %d/%d, want 2/8", s.TotalBatches(), s.TotalBatchedPtrs())
	}

	table := s.Table()
	if !strings.Contains(table, "avgbat") || !strings.Contains(table, "4.0") {
		t.Errorf("Table missing batch columns:\n%s", table)
	}
}

func TestRegistryBatchTotals(t *testing.T) {
	r := NewRegistry(4)
	tr := New("j", []StageInfo{{Name: "d", Kind: "deref"}}, 1)
	tr.AddBatch(0, 5)
	tr.AddBatchSplit(0)
	r.Add(tr.Snapshot(nil))

	if tot := r.Totals(); tot.Batches != 1 || tot.BatchedPtrs != 5 || tot.BatchSplits != 1 {
		t.Errorf("batch totals = %d/%d/%d, want 1/5/1", tot.Batches, tot.BatchedPtrs, tot.BatchSplits)
	}
}
