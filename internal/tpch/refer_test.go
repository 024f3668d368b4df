package tpch

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"lakeharbor/internal/core"
	"lakeharbor/internal/lake"
)

// recordingRef shows the executor only Ref, and keeps a copy of every record
// it is shown.
type recordingRef struct {
	core.Referencer
	mu   *sync.Mutex
	recs *[]lake.Record
}

func (r recordingRef) Ref(tc *core.TaskCtx, rec lake.Record) ([]lake.Pointer, error) {
	r.mu.Lock()
	*r.recs = append(*r.recs, lake.Record{Key: rec.Key, Data: bytes.Clone(rec.Data)})
	r.mu.Unlock()
	return r.Referencer.Ref(tc, rec)
}

// TestFieldRefArenaMatchesOneShot: over the seeded TPC-H corpus, every
// referencer stage of Q5′ (every region, the whole date range) and of Q3
// (two segments) emits the same pointers through AppendRef, cutting from one
// warm arena, as through Ref, one-shot — Key, EndKey, PartKey, NoPart and
// Carry byte for byte, compared only once every record has been through the
// arena, so a later cut that overwrote an earlier one shows.
func TestFieldRefArenaMatchesOneShot(t *testing.T) {
	ctx := context.Background()
	c, ds := loadDataset(t, Generate(Config{SF: 0.05, Seed: 1}), 2)
	var jobs []*core.Job
	for _, r := range ds.Regions {
		job, err := Q5Job(ctx, c, r.Name, 0, DateDays)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	for _, seg := range []string{"BUILDING", "MACHINERY"} {
		job, err := Q3Job(seg, DateDays)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	type stageInput struct {
		name string
		ref  core.AppendReferencer
		recs []lake.Record
	}
	var inputs []*stageInput
	var mu sync.Mutex
	for _, job := range jobs {
		recorded := *job
		recorded.Stages = append([]core.Stage(nil), job.Stages...)
		for i, st := range recorded.Stages {
			if ref, ok := st.Ref.(core.AppendReferencer); ok {
				in := &stageInput{name: fmt.Sprintf("%s stage %d %s", job.Name, i, ref.Name()), ref: ref}
				inputs = append(inputs, in)
				recorded.Stages[i].Ref = recordingRef{ref, &mu, &in.recs}
			}
		}
		if _, err := core.ExecuteSMPE(ctx, &recorded, c, c, core.Options{Threads: 8}); err != nil {
			t.Fatal(err)
		}
	}

	var a lake.Arena
	a.Cut(append(a.Tail(4000), make([]byte, 4000)...)) // warm, with a chunk boundary close
	tc := &core.TaskCtx{Ctx: ctx}
	var warm [][]lake.Pointer
	fields, total := map[string]bool{}, 0
	for _, in := range inputs {
		for _, rec := range in.recs {
			ptrs, err := in.ref.AppendRef(tc, &a, nil, rec)
			if err != nil {
				t.Fatalf("%s: %v", in.name, err)
			}
			warm = append(warm, ptrs)
		}
		if _, ok := in.ref.(core.FieldRef); ok && len(in.recs) > 0 {
			fields[in.name] = true
		}
		total += len(in.recs)
	}
	if len(fields) < 5 || total < 1000 {
		t.Fatalf("%d FieldRef stages saw records, %d records in all: the corpus does not exercise the referencers", len(fields), total)
	}
	n := 0
	for _, in := range inputs {
		for _, rec := range in.recs {
			want, err := in.ref.Ref(tc, rec)
			if err != nil {
				t.Fatalf("%s: %v", in.name, err)
			}
			got := warm[n]
			n++
			if len(got) != len(want) {
				t.Fatalf("%s: %d pointers through the arena, %d one-shot", in.name, len(got), len(want))
			}
			for i, w := range want {
				g := got[i]
				if g.File != w.File || g.Key != w.Key || g.EndKey != w.EndKey || g.PartKey != w.PartKey || g.NoPart != w.NoPart || !bytes.Equal(g.Carry, w.Carry) {
					t.Fatalf("%s, record %q: through the arena %+v, one-shot %+v", in.name, rec.Data, g, w)
				}
			}
		}
	}
}
