// Package oracle is the differential query oracle for the SMPE executor.
// One seed generates a random cluster, dataset and multi-stage job, and an
// independent baseline scan engine computes the expected answer. The job
// then runs at every point of a configuration product — one value per axis:
//
//	plane       sim | net                          (in-process cluster, or loopback nodenet servers)
//	functions   compiled | script                  (Go access methods, or their mirror scripts)
//	structures  hand-built | managed | recovered   (generated index, lifecycle rebuild, crash recovery)
//	faults      off | on                           (the seed's chaos schedule armed, on either plane)
//	dispatch    pool | sched                       (standing per-node workers, or a 9:3:1 tenant mix)
//	batch       drawn | 1                          (the scenario's MaxBatch, or no coalescing)
//
// Each point assembles its own world from the seed, in one fixed order:
// generate → structures → plane → functions → faults → dispatch → run, and
// one check set runs on the result: the row multiset against the baseline
// answer, the trace invariants, pointer conservation, and per-stage emits
// equal to the reference point's (the first value on every axis). Each axis
// adds the invariants of the machinery it puts in place. A divergence is
// reported at every point that shows it and shrunk to the first of them in
// product order — which no single axis can move closer to the reference
// point, since that closer point ran and agreed — and, at faults=on, to a
// minimal fault schedule by chaos.Shrink. Everything reproduces from
// the seed and the point alone.
package oracle

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"lakeharbor/internal/chaos"
	"lakeharbor/internal/core"
	"lakeharbor/internal/trace"
)

// axes is the configuration product. Value 0 of every axis is the
// reference value, so the zero Point is the reference point.
var axes = [numAxes]axis{
	{"plane", []string{"sim", "net"}},
	{"functions", []string{"compiled", "script"}},
	{"structures", []string{"hand-built", "managed", "recovered"}},
	{"faults", []string{"off", "on"}},
	{"dispatch", []string{"pool", "sched"}},
	{"batch", []string{"drawn", "1"}},
}

type axis struct {
	name   string
	values []string
}

// Axis indexes into a Point.
const (
	plane = iota
	functions
	structures
	faults
	dispatch
	batch
	numAxes
)

// Point is one configuration: the index of its value on every axis.
type Point [numAxes]int

// is reports whether p takes value v on axis a.
func (p Point) is(a int, v string) bool {
	i := slices.Index(axes[a].values, v)
	if i < 0 {
		panic("oracle: axis " + axes[a].name + " has no value " + v)
	}
	return p[a] == i
}

// String renders p in the form ParseAxes reads, so it doubles as the
// -axes argument that selects exactly p.
func (p Point) String() string {
	terms := make([]string, numAxes)
	for a, v := range p {
		terms[a] = axes[a].name + "=" + axes[a].values[v]
	}
	return strings.Join(terms, ",")
}

// Axes restricts the product: Axes[a] is the bit set of values allowed on
// axis a, and an empty set allows every value.
type Axes [numAxes]uint

// ParseAxes reads a comma-separated list of axis=value terms. Terms on the
// same axis add up; an axis no term names keeps all its values, so "" is
// the whole product.
func ParseAxes(list string) (Axes, error) {
	var x Axes
	for _, term := range strings.FieldsFunc(list, func(r rune) bool { return r == ',' }) {
		name, value, _ := strings.Cut(strings.TrimSpace(term), "=")
		a := slices.IndexFunc(axes[:], func(ax axis) bool { return ax.name == name })
		if a < 0 {
			return x, fmt.Errorf("unknown axis %q (axes: plane, functions, structures, faults, dispatch, batch)", name)
		}
		v := slices.Index(axes[a].values, value)
		if v < 0 {
			return x, fmt.Errorf("axis %s has no value %q (values: %s)", name, value, strings.Join(axes[a].values, ", "))
		}
		x[a] |= 1 << v
	}
	return x, nil
}

// points enumerates the restricted product in lexicographic order, first
// axis slowest, so the reference point comes first.
func (x Axes) points() []Point {
	var out []Point
	for p := (Point{}); ; {
		if x.allows(p) {
			out = append(out, p)
		}
		a := numAxes - 1
		for ; a >= 0 && p[a] == len(axes[a].values)-1; a-- {
			p[a] = 0
		}
		if a < 0 {
			return out
		}
		p[a]++
	}
}

func (x Axes) allows(p Point) bool {
	for a, v := range p {
		if x[a] != 0 && x[a]&(1<<v) == 0 {
			return false
		}
	}
	return true
}

// Options tunes one oracle run.
type Options struct {
	// Axes restricts the points each seed runs; the zero value runs them all.
	Axes Axes
}

// Report is the outcome of one seeded differential run.
type Report struct {
	// Seed reproduces everything: the scenario, the job, and the schedule.
	Seed int64
	// Desc summarizes the generated scenario.
	Desc string
	// Points lists the points that ran, in product order.
	Points []Point
	// Failures lists every detected divergence, each prefixed with its
	// point; empty means every point agreed and every invariant held.
	Failures []string
	// DivergedPoints lists the points that diverged, in product order.
	DivergedPoints []Point
	// MinPoint is the divergence shrunk along the axes: the first diverged
	// point. Lowering any one of its axes to a selected value gives an
	// earlier point in product order, which ran and agreed, so no axis can
	// move closer to the reference point.
	MinPoint Point
	// MinSchedule is MinPoint's fault schedule shrunk by chaos.Shrink; nil
	// unless MinPoint has faults=on.
	MinSchedule *chaos.Schedule
	// DivergedTrace is MinPoint's execution trace — event timeline
	// included — for export beside the repro; nil when the point failed
	// before producing one.
	DivergedTrace *trace.Snapshot
	// NetHedgeFires and NetLeakedConns total the net points' transport
	// stats: hedged second attempts launched, and connections still open
	// after the client pools closed (each leak is also a failure).
	NetHedgeFires, NetLeakedConns int64
	// FaultsFired totals, per plane (sim, net), the key accesses the armed
	// fault schedules failed at faults=on (chaos.Armed.Fired).
	FaultsFired [2]int64
}

// Diverged reports whether any point disagreed or broke an invariant.
func (r *Report) Diverged() bool { return len(r.Failures) > 0 }

// Repro renders what a failure report needs: the seed, the scenario, the
// minimal point and schedule, and the command that replays them.
func (r *Report) Repro() string {
	s := fmt.Sprintf("oracle: seed=%d %s", r.Seed, r.Desc)
	if !r.Diverged() {
		return s
	}
	s += "\n  minimal point: " + r.MinPoint.String()
	if r.MinSchedule != nil {
		s += "\n  minimal schedule: " + r.MinSchedule.String()
	}
	return s + fmt.Sprintf("\n  repro: go run ./cmd/chaosbench -seed %d -n 1 -axes %s", r.Seed, r.MinPoint)
}

// Run executes the full differential check for one seed: the reference
// point (always, since every point's emits are compared to it) and every
// point the options select. A non-nil error means the harness itself
// failed (generation, context death); divergences are reported through
// Report.Failures.
func Run(ctx context.Context, seed int64, opts Options) (*Report, error) {
	ref, err := runPoint(ctx, seed, Point{}, nil, nil)
	if err != nil {
		return nil, err
	}
	rep := &Report{Seed: seed, Desc: ref.desc}
	for _, p := range opts.Axes.points() {
		out := ref
		if p != (Point{}) {
			if out, err = runPoint(ctx, seed, p, ref.emits, nil); err != nil {
				return nil, err
			}
		}
		rep.Points = append(rep.Points, p)
		rep.NetHedgeFires += out.hedges
		rep.NetLeakedConns += out.leaks
		rep.FaultsFired[p[plane]] += out.fired
		if len(out.fails) == 0 {
			continue
		}
		if !rep.Diverged() {
			rep.MinPoint, rep.DivergedTrace = p, out.trace
			if out.schedule != nil {
				rep.MinSchedule = chaos.Shrink(out.schedule, func(cand *chaos.Schedule) bool {
					o, err := runPoint(ctx, seed, p, ref.emits, cand)
					return err == nil && len(o.fails) > 0
				})
			}
		}
		rep.DivergedPoints = append(rep.DivergedPoints, p)
		for _, f := range out.fails {
			rep.Failures = append(rep.Failures, "["+p.String()+"] "+f)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return rep, nil
}

// Sweep totals the reports of a run of seeds and checks what no single seed
// can: that the net points hedged and that the armed fault schedules fired
// on each plane. A sweep of ten or more seeds that never did either left
// that path untested, however well the answers matched.
type Sweep struct {
	Divergent               int
	HedgeFires, LeakedConns int64
	// FaultsFired totals the reports' FaultsFired, per plane (sim, net).
	FaultsFired      [2]int64
	seeds, netPoints int
	faultPoints      [2]int
}

// Add folds one seed's report into the sweep.
func (s *Sweep) Add(r *Report) {
	s.seeds++
	if r.Diverged() {
		s.Divergent++
	}
	for _, p := range r.Points {
		if p.is(plane, "net") {
			s.netPoints++
		}
		if p.is(faults, "on") {
			s.faultPoints[p[plane]]++
		}
	}
	s.HedgeFires += r.NetHedgeFires
	s.LeakedConns += r.NetLeakedConns
	for i, n := range r.FaultsFired {
		s.FaultsFired[i] += n
	}
}

// Failures lists the sweep's vacuity failures.
func (s *Sweep) Failures() []string {
	var fails []string
	if s.seeds >= 10 && s.netPoints > 0 && s.HedgeFires == 0 {
		fails = append(fails, fmt.Sprintf("net points fired no hedged request across %d seeds", s.seeds))
	}
	for i, name := range axes[plane].values {
		if s.seeds >= 10 && s.faultPoints[i] > 0 && s.FaultsFired[i] == 0 {
			fails = append(fails, fmt.Sprintf("{%s, faults on} points fired no fault across %d seeds", name, s.seeds))
		}
	}
	return fails
}

// checkRun diffs one job's result against the oracle answer and verifies
// the trace invariants the executor is supposed to uphold.
func checkRun(label string, sc *scenario, res *core.Result, err error, maxRetries int) []string {
	if err != nil {
		return []string{fmt.Sprintf("%s: execution failed: %v", label, err)}
	}
	var fails []string
	fail := func(format string, args ...any) {
		fails = append(fails, label+": "+fmt.Sprintf(format, args...))
	}

	// Row multiset: the core differential check.
	fails = append(fails, diffMultisets(label, sc.expected, multisetOf(res.Records))...)
	if res.Count != int64(len(res.Records)) {
		fail("count %d disagrees with %d kept records", res.Count, len(res.Records))
	}

	// Trace invariants.
	tr := res.Trace
	last := len(tr.Stages) - 1
	if tr.Stages[last].Emits != res.Count {
		fail("final stage emits %d but count is %d", tr.Stages[last].Emits, res.Count)
	}
	for i, st := range tr.Stages {
		if st.Errors != 0 {
			fail("stage %d reports %d errors on a successful run", i, st.Errors)
		}
		if maxRetries == 0 && st.Retries != 0 {
			fail("stage %d retried %d times with retries disabled", i, st.Retries)
		}
	}
	if maxRetries > 0 {
		if total, limit := tr.TotalRetries(), int64(maxRetries)*tr.TotalBatchedPtrs(); total > limit {
			fail("retries %d exceed MaxRetries×pointers = %d", total, limit)
		}
	}
	// Pointer conservation ("no task leaks"): every pointer a stage emits
	// must be dereferenced by the next deref stage exactly once; seeds must
	// all arrive at stage 0, broadcast ones once per node.
	wantSeedPtrs := int64(sc.routedSeeds + sc.broadcastSeeds*sc.cluster.NumNodes())
	if got := tr.Stages[0].BatchedPtrs; got != wantSeedPtrs {
		fail("stage 0 dereferenced %d pointers, want %d (%d routed + %d broadcast × %d nodes)",
			got, wantSeedPtrs, sc.routedSeeds, sc.broadcastSeeds, sc.cluster.NumNodes())
	}
	for i := 2; i < len(tr.Stages); i += 2 {
		fanout := int64(1)
		if f, ok := sc.ptrFanout[i]; ok {
			fanout = int64(f)
		}
		if emitted, arrived := tr.Stages[i-1].Emits, tr.Stages[i].BatchedPtrs; arrived != emitted*fanout {
			fail("stage %d dereferenced %d pointers but stage %d emitted %d×%d (leak or duplication)",
				i, arrived, i-1, emitted, fanout)
		}
	}
	return fails
}

// diffMultisets reports rows missing from / extra in got versus want, with
// a bounded number of samples so a badly wrong run stays readable.
func diffMultisets(label string, want, got map[string]int) []string {
	const maxSamples = 4
	var missing, extra []string
	for k, w := range want {
		if got[k] < w {
			missing = append(missing, fmt.Sprintf("%q ×%d", k, w-got[k]))
		}
	}
	for k, g := range got {
		if want[k] < g {
			extra = append(extra, fmt.Sprintf("%q ×%d", k, g-want[k]))
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	var fails []string
	if len(missing) > 0 {
		fails = append(fails, fmt.Sprintf("%s: %d row(s) missing, e.g. %v", label, len(missing), sample(missing, maxSamples)))
	}
	if len(extra) > 0 {
		fails = append(fails, fmt.Sprintf("%s: %d unexpected row(s), e.g. %v", label, len(extra), sample(extra, maxSamples)))
	}
	return fails
}

func sample(s []string, n int) []string {
	if len(s) <= n {
		return s
	}
	return s[:n]
}
