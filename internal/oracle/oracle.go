// Package oracle is the differential query oracle for the SMPE executor:
// one seed generates a random cluster, dataset, and multi-stage job, and
// the job is executed several ways — SMPE batched, SMPE unbatched, SMPE
// under an armed chaos schedule, SMPE against a lifecycle-managed rebuild
// of the scenario's index (built in flight, then evicted and rebuilt on
// demand), SMPE against a crash-recovered replica (checkpoint taken
// mid-workload, WAL-logged tail, fresh cluster + manager recovery), and an
// independent baseline scan engine (the expected answer).
// Any difference in the result multiset, any per-stage
// emit-count disagreement between the SMPE arms, or any violated trace
// invariant is a reported divergence that reproduces from the seed alone;
// a chaos-arm divergence is additionally shrunk (chaos.Shrink) to a
// minimal fault schedule.
package oracle

import (
	"context"
	"fmt"
	"sort"
	"time"

	"lakeharbor/internal/chaos"
	"lakeharbor/internal/core"
	"lakeharbor/internal/trace"
)

// Options tunes one oracle run.
type Options struct {
	// Chaos enables the fourth arm: the job re-executed under a compiled,
	// armed chaos schedule (same seed as the scenario).
	Chaos bool
	// Shrink reduces a chaos-arm divergence to a minimal schedule. It
	// re-runs the chaos arm O(events²) times, so it only triggers on
	// divergence.
	Shrink bool
	// Profile overrides the chaos density; zero selects
	// chaos.DefaultProfile.
	Profile chaos.Profile
	// Lifecycle enables the fifth arm: for index-bearing forms, the
	// hand-built index is dropped and rebuilt through a lifecycle Manager —
	// the job fires while the build is in flight (joined via singleflight
	// Ensure), and again after a forced evict triggers rebuild-on-demand.
	// Both runs must reproduce the oracle answer.
	Lifecycle bool
	// Restart enables the sixth arm: the cluster is checkpointed mid-
	// workload, post-checkpoint mutations go through a real on-disk WAL, and
	// a fresh cluster + lifecycle manager recover from snapshot + replay +
	// structure registry. The recovered world must reproduce the oracle
	// answer, the per-file record counts, and the structure registry of the
	// uninterrupted run — without starting a single build.
	Restart bool
	// Net enables the seventh arm: the scenario is mirrored onto real
	// loopback lakenode servers (one per node, nodenet clients with
	// multiplexed connections and hedging in front) and the job runs there twice —
	// clean, and under armed transport chaos. Answers, emits, pointer
	// conservation, and a zero-leak pool drain are all asserted.
	Net bool
	// Tenants enables the eighth arm: the job runs as a 3-tenant 9:3:1 mix
	// on one shared weighted-fair scheduler — clean and under chaos — and
	// every tenant's rows and stage emits must equal the single-tenant run,
	// with admission (over-quota rejection), no-starvation, weighted-share,
	// and drained-accounting invariants on top.
	Tenants bool
	// Script enables the ninth arm: the scenario's compiled interpreter,
	// referencer, and filter are mirrored as script source, the job re-runs
	// with the scripted functions in their place, and rows, per-stage emits,
	// and every trace invariant must agree (scripted ≡ compiled). For
	// index-bearing forms the arm also rebuilds the index through scripted
	// Spec extractors and probes the scripted structure.
	Script bool
}

// Report is the outcome of one seeded differential run.
type Report struct {
	// Seed reproduces everything: the scenario, the job, and the schedule.
	Seed int64
	// Desc summarizes the generated scenario.
	Desc string
	// Expected is the oracle answer's row count.
	Expected int
	// Failures lists every detected divergence; empty means all four arms
	// agreed and every invariant held.
	Failures []string
	// Schedule is the compiled chaos schedule (nil without Options.Chaos).
	Schedule *chaos.Schedule
	// MinSchedule is the shrunk schedule when the chaos arm diverged and
	// shrinking was enabled.
	MinSchedule *chaos.Schedule
	// DivergedArm names the first arm that diverged ("" when none did).
	DivergedArm string
	// DivergedTrace is the execution trace — event timeline included — of
	// the first diverging arm, for timeline export alongside the repro. It
	// is nil when no arm diverged or the arm failed before producing one.
	DivergedTrace *trace.Snapshot
	// NetHedgeFires and NetLeakedConns surface the net arm's transport
	// stats (zero without Options.Net): how many hedged second attempts
	// were launched across both net runs, and how many TCP connections were
	// still open after the client pools drained (must be 0; a non-zero
	// value is also reported as a failure).
	NetHedgeFires  int64
	NetLeakedConns int64
}

// Diverged reports whether any arm disagreed or broke an invariant.
func (r *Report) Diverged() bool { return len(r.Failures) > 0 }

// Repro renders the one line a failure report needs: the seed, the
// scenario, and (when present) the minimal schedule.
func (r *Report) Repro() string {
	s := fmt.Sprintf("oracle: seed=%d %s", r.Seed, r.Desc)
	if r.MinSchedule != nil {
		s += "\n  minimal schedule: " + r.MinSchedule.String()
	} else if r.Schedule != nil {
		s += "\n  schedule: " + r.Schedule.String()
	}
	return s + fmt.Sprintf("\n  repro: go run ./cmd/chaosbench -seed %d -n 1", r.Seed)
}

// Run executes the full differential check for one seed. A non-nil error
// means the harness itself failed (generation, context death) — divergences
// are reported through Report.Failures, not the error.
func Run(ctx context.Context, seed int64, opts Options) (*Report, error) {
	sc, err := generate(ctx, seed)
	if err != nil {
		return nil, fmt.Errorf("oracle: seed %d: generate: %w", seed, err)
	}
	rep := &Report{Seed: seed, Desc: sc.desc, Expected: sc.expectedCount}

	batched := core.Options{Threads: sc.threads, MaxBatch: sc.maxBatch, KeepRecords: true}
	unbatched := batched
	unbatched.MaxBatch = 1

	// note records one arm's failures and, for the first diverging arm,
	// keeps its trace so the harness can export the failing timeline.
	note := func(arm string, res *core.Result, fails []string) {
		rep.Failures = append(rep.Failures, fails...)
		if len(fails) > 0 && rep.DivergedArm == "" {
			rep.DivergedArm = arm
			if res != nil {
				rep.DivergedTrace = res.Trace
			}
		}
	}

	resA, errA := core.ExecuteSMPE(ctx, sc.job, sc.cluster, sc.cluster, batched)
	note("smpe-batched", resA, checkArm("smpe-batched", sc, resA, errA, 0))
	resB, errB := core.ExecuteSMPE(ctx, sc.job, sc.cluster, sc.cluster, unbatched)
	note("smpe-unbatched", resB, checkArm("smpe-unbatched", sc, resB, errB, 0))

	// Batching is an optimization, never a semantic change: the two clean
	// arms must agree stage by stage, not only on the final multiset.
	if errA == nil && errB == nil {
		for i := range resA.StageEmits {
			if resA.StageEmits[i] != resB.StageEmits[i] {
				rep.Failures = append(rep.Failures, fmt.Sprintf(
					"emit divergence: stage %d emits %d batched vs %d unbatched",
					i, resA.StageEmits[i], resB.StageEmits[i]))
			}
		}
	}

	if opts.Chaos {
		rep.Schedule = chaos.Compile(seed, sc.target, opts.Profile)
		res, fails := runChaosArm(ctx, sc, rep.Schedule)
		note("smpe-chaos", res, fails)
		if len(fails) > 0 && opts.Shrink {
			rep.MinSchedule = chaos.Shrink(rep.Schedule, func(cand *chaos.Schedule) bool {
				_, f := runChaosArm(ctx, sc, cand)
				return len(f) > 0
			})
		}
	}
	if opts.Net {
		// The net arm runs on its own mirrored cluster, so scenario state is
		// untouched; it still runs before the mutating arms so the mirror
		// reflects the scenario as every clean arm saw it.
		res, fails, ns := runNetArm(ctx, sc)
		note("smpe-net", res, fails)
		rep.NetHedgeFires = ns.HedgeFires
		rep.NetLeakedConns = ns.LeakedConns
		if errA == nil && res != nil && len(fails) == 0 {
			// The networked data plane is a transport swap, not a semantic
			// change: stage-by-stage emits must match the sim run exactly
			// (hedged duplicates are suppressed below the executor).
			for i := range resA.StageEmits {
				if resA.StageEmits[i] != res.StageEmits[i] {
					rep.Failures = append(rep.Failures, fmt.Sprintf(
						"emit divergence: stage %d emits %d sim vs %d net",
						i, resA.StageEmits[i], res.StageEmits[i]))
				}
			}
		}
	}
	if opts.Tenants {
		// The tenant mix re-runs the job concurrently against the scenario
		// cluster read-only (it arms and disarms its own chaos schedule),
		// so it must precede the mutating lifecycle/restart arms.
		var singleEmits []int64
		if errA == nil {
			singleEmits = resA.StageEmits
		}
		res, fails := runTenantsArm(ctx, sc, opts.Profile, singleEmits)
		note("smpe-tenants", res, fails)
	}
	if opts.Script {
		// The script arm reads the scenario cluster and builds/drops only its
		// own scratch index, but it compares against the hand-built index, so
		// it runs before the mutating lifecycle/restart arms.
		var singleEmits []int64
		if errA == nil {
			singleEmits = resA.StageEmits
		}
		res, fails := runScriptArm(ctx, sc, singleEmits)
		note("smpe-script", res, fails)
	}
	if opts.Lifecycle {
		// Late arm: it mutates the scenario's index (drop + managed rebuild
		// to an equivalent file), so every arm that expects the hand-built
		// one has already run.
		res, fails := runLifecycleArm(ctx, sc)
		note("smpe-lifecycle", res, fails)
	}
	if opts.Restart {
		// Last arm: it appends post-checkpoint records to the base and
		// creates a scratch file, so every other arm has already run.
		res, fails := runRestartArm(ctx, sc)
		note("smpe-restart", res, fails)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return rep, nil
}

// runChaosArm arms the schedule, executes the job with enough retries to
// out-wait every injected fault, disarms, and returns the arm's result
// (nil when arming or execution failed) and divergences.
func runChaosArm(ctx context.Context, sc *scenario, sched *chaos.Schedule) (*core.Result, []string) {
	armed, err := sched.Arm(sc.cluster)
	if err != nil {
		return nil, []string{fmt.Sprintf("smpe-chaos: arming failed: %v", err)}
	}
	defer armed.Disarm()
	maxRetries := sched.TotalHeals() + 2
	opts := core.Options{
		Threads:      sc.threads,
		MaxBatch:     sc.maxBatch,
		KeepRecords:  true,
		MaxRetries:   maxRetries,
		RetryBackoff: 50 * time.Microsecond,
	}
	res, err := core.ExecuteSMPE(ctx, sc.job, sc.cluster, sc.cluster, opts)
	return res, checkArm("smpe-chaos", sc, res, err, maxRetries)
}

// checkArm diffs one arm's result against the oracle answer and verifies
// the trace invariants the executor is supposed to uphold.
func checkArm(arm string, sc *scenario, res *core.Result, err error, maxRetries int) []string {
	if err != nil {
		return []string{fmt.Sprintf("%s: execution failed: %v", arm, err)}
	}
	var fails []string
	fail := func(format string, args ...any) {
		fails = append(fails, arm+": "+fmt.Sprintf(format, args...))
	}

	// Row multiset: the core differential check.
	got := multisetOf(res.Records)
	fails = append(fails, diffMultisets(arm, sc.expected, got)...)
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
func diffMultisets(arm string, want, got map[string]int) []string {
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
	if len(missing) == 0 && len(extra) == 0 {
		return nil
	}
	sort.Strings(missing)
	sort.Strings(extra)
	var fails []string
	if len(missing) > 0 {
		fails = append(fails, fmt.Sprintf("%s: %d row(s) missing, e.g. %v", arm, len(missing), sample(missing, maxSamples)))
	}
	if len(extra) > 0 {
		fails = append(fails, fmt.Sprintf("%s: %d unexpected row(s), e.g. %v", arm, len(extra), sample(extra, maxSamples)))
	}
	return fails
}

func sample(s []string, n int) []string {
	if len(s) <= n {
		return s
	}
	return s[:n]
}
