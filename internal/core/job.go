// Package core implements ReDe, the prototype data processing engine of the
// LakeHarbor paradigm (paper §III).
//
// A data processing job is a list of alternating dereference and reference
// functions (the Reference-Dereference abstraction, §III-B): a Dereferencer
// takes a pointer — or a pair of pointers bounding a range — and produces
// records; a Referencer takes a record, interprets it with schema-on-read,
// and produces pointers to other records. The order of the functions encodes
// the data dependencies of the job, and the functions themselves expose the
// structural information of the data. The executor (smpe.go) exploits both
// to decompose the job into fine-grained tasks at run time and execute them
// with massive parallelism (SMPE, §III-C and Algorithm 1).
package core

import (
	"context"
	"fmt"
	"strings"

	"lakeharbor/internal/lake"
)

// Interpreter interprets a raw record with schema-on-read (paper §III-B).
// Interpreters are the only job-specific code users normally write — for
// delimited text, one Delimited declaration. See Fields for what the returned
// view aliases and how long it is valid. An interpreter must be pure: a
// composite view runs it again on every Get.
type Interpreter func(rec lake.Record) (Fields, error)

// Filter decides whether a record emitted by a Dereferencer flows to the
// next stage. It interprets the record with schema-on-read itself; a nil
// Filter passes everything. rec is valid for the call only, as a view is: a
// combining Dereferencer shows its filter each joined record in a scratch
// buffer that the next record overwrites, and copies only what is kept.
type Filter func(rec lake.Record) (bool, error)

// TaskCtx is the execution context handed to every Referencer and
// Dereferencer invocation: which node is executing, how storage is laid
// out, and the context to use for I/O (already bound to the node so the
// storage layer can price local vs. remote accesses).
type TaskCtx struct {
	// Ctx is the I/O context, bound to the executing node.
	Ctx context.Context
	// Node is the executing compute node's id.
	Node int
	// Nodes is the cluster size.
	Nodes int
	// Catalog resolves file names.
	Catalog lake.Catalog
	// Owner returns the node hosting a partition.
	Owner func(partition int) int
}

// serves reports whether a pointer that resolved to (part, broadcast)
// addresses partition p on the executing node: part itself when routed, and
// every partition the node hosts when broadcast — dereferencing a broadcast
// pointer means applying it to exactly those.
func (tc *TaskCtx) serves(p, part int, broadcast bool) bool {
	if broadcast {
		return tc.Owner(p) == tc.Node
	}
	return p == part
}

// Referencer takes a record and produces a set of pointers to other records
// that the record is associated with.
type Referencer interface {
	// Name identifies the function in errors and stats.
	Name() string
	// Ref produces the pointers the record refers to.
	Ref(tc *TaskCtx, rec lake.Record) ([]lake.Pointer, error)
}

// AppendReferencer is optionally implemented by Referencers that can write
// their pointers into a slice the executor supplies, so a task's worth of
// records shares one scratch slice instead of allocating one per record. A
// Referencer that does not implement it is simply called through Ref; the
// built-in ones have one body, and their Ref is AppendRef onto nil.
type AppendReferencer interface {
	Referencer
	// AppendRef appends the pointers the record refers to onto dst and
	// returns the extended slice. The keys and carries it makes are cut from
	// a, the task's arena; nil cuts each one-shot.
	AppendRef(tc *TaskCtx, a *lake.Arena, dst []lake.Pointer, rec lake.Record) ([]lake.Pointer, error)
}

// Dereferencer takes a pointer (or a range of pointers) and produces the set
// of records it points to. Every Dereferencer manages either a File or a
// BtreeFile.
type Dereferencer interface {
	// Name identifies the function in errors and stats.
	Name() string
	// Deref produces the records ptr points to. A pointer without
	// partition information has been broadcast: the function must apply
	// it to the executing node's local partitions only.
	Deref(tc *TaskCtx, ptr lake.Pointer) ([]lake.Record, error)
}

// BatchDereferencer is optionally implemented by Dereferencers that can
// serve a whole pointer batch in one storage round trip. The executor
// coalesces routed point pointers per (stage, file, partition) up to
// Options.MaxBatch and hands the batch here; a Dereferencer that does not
// implement it is simply invoked once per pointer, so batching is purely an
// optimization, never a semantic change.
type BatchDereferencer interface {
	Dereferencer
	// DerefBatch produces, for each pointer, the records it points to,
	// aligned with ptrs (out[i] belongs to ptrs[i]). An error fails the
	// whole batch; the executor then splits the batch and retries the
	// pointers individually, so a partial failure never loses work. ptrs
	// belongs to the executor, which reuses it once the task is done: read
	// it during the call, never keep it.
	DerefBatch(tc *TaskCtx, ptrs []lake.Pointer) ([][]lake.Record, error)
}

// AppendDereferencer is optionally implemented by Dereferencers that can
// append the records of a pointer batch, or of one pointer, onto a record
// array the executor supplies — one pooled array per task, from storage to
// the next stage. The executor prefers it over Deref and DerefBatch.
type AppendDereferencer interface {
	Dereferencer
	// AppendDeref appends the records ptrs point to onto dst, in no promised
	// order. On error dst comes back at its own length, nothing written past
	// it. ptrs is read during the call only, as for DerefBatch. The records
	// it builds (a combine's joined records) are cut from a, the task's
	// arena; nil cuts each one-shot.
	AppendDeref(tc *TaskCtx, a *lake.Arena, dst []lake.Record, ptrs []lake.Pointer) ([]lake.Record, error)
}

// Stage is one step of a job: exactly one of Ref or Deref is set.
type Stage struct {
	Ref   Referencer
	Deref Dereferencer
}

// name returns the stage's function name for diagnostics.
func (s Stage) name() string {
	if s.Deref != nil {
		return s.Deref.Name()
	}
	if s.Ref != nil {
		return s.Ref.Name()
	}
	return "<empty>"
}

// Job is a data processing job: seed pointers fed into the first
// Dereferencer, and the list of functions they flow through. Records emitted
// by the final Dereferencer are the job's result.
type Job struct {
	// Name labels the job in errors and stats.
	Name string
	// Stages alternate Dereferencer, Referencer, Dereferencer, ...,
	// starting and ending with a Dereferencer (Fig. 3 of the paper).
	Stages []Stage
	// Seeds are the initial pointers. A seed without partition information
	// is broadcast: every node applies it to its local partitions — this
	// is how a job opens with a range over a local secondary index.
	Seeds []lake.Pointer
}

// Validate checks the structural rules of Reference-Dereference: stages
// alternate starting and ending with a Dereferencer, and there is at least
// one stage and one seed.
func (j *Job) Validate() error {
	if len(j.Stages) == 0 {
		return fmt.Errorf("core: job %q has no stages", j.Name)
	}
	if len(j.Seeds) == 0 {
		return fmt.Errorf("core: job %q has no seed pointers", j.Name)
	}
	for i, s := range j.Stages {
		if (s.Ref == nil) == (s.Deref == nil) {
			return fmt.Errorf("core: job %q stage %d must set exactly one of Ref or Deref", j.Name, i)
		}
		wantDeref := i%2 == 0
		if wantDeref && s.Deref == nil {
			return fmt.Errorf("core: job %q stage %d (%s) must be a Dereferencer", j.Name, i, s.name())
		}
		if !wantDeref && s.Ref == nil {
			return fmt.Errorf("core: job %q stage %d (%s) must be a Referencer", j.Name, i, s.name())
		}
	}
	if last := len(j.Stages) - 1; j.Stages[last].Deref == nil {
		return fmt.Errorf("core: job %q must end with a Dereferencer", j.Name)
	}
	return nil
}

// NewJob composes a job from an alternating function list, mirroring the
// paper's job-definition code (Fig. 4): pass Dereferencers and Referencers
// in execution order.
func NewJob(name string, seeds []lake.Pointer, funcs ...any) (*Job, error) {
	j := &Job{Name: name, Seeds: seeds}
	for i, f := range funcs {
		switch f := f.(type) {
		case Dereferencer:
			j.Stages = append(j.Stages, Stage{Deref: f})
		case Referencer:
			j.Stages = append(j.Stages, Stage{Ref: f})
		default:
			return nil, fmt.Errorf("core: job %q: argument %d is %T, want Referencer or Dereferencer", name, i, f)
		}
	}
	if err := j.Validate(); err != nil {
		return nil, err
	}
	return j, nil
}

// Describe renders the job's stage chain for humans, one line per stage:
//
//	stage 0: Dereferencer RangeDeref(orders_date_idx)
//	stage 1: Referencer   EntryRef(orders)
//	...
func (j *Job) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "job %q (%d seeds)\n", j.Name, len(j.Seeds))
	for i, s := range j.Stages {
		kind := "Referencer  "
		if s.Deref != nil {
			kind = "Dereferencer"
		}
		fmt.Fprintf(&b, "  stage %d: %s %s\n", i, kind, s.name())
	}
	return b.String()
}
