package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sizes fixes how much data each workload runs on.
type sizes struct {
	SF       float64 // TPC-H micro scale factor of the q5_* workloads
	Sel      float64 // date-range selectivity of a Q5' job (raised if too many jobs are empty)
	IngestSF float64 // of ingest_q5
	Claims   int     // corpus size of fig9_tenants
	Nodes    int
	Setups   int           // timed set-ups per run (median reported)
	Reps     int           // measured repetitions per run
	Warm     time.Duration // untimed warm-up before the first repetition; 0 for none
	Scratch  string        // directory for WALs and snapshots; emptied after use
}

var (
	fullSizes  = sizes{SF: 0.5, Sel: 0.05, IngestSF: 1, Claims: 20000, Nodes: 4, Setups: 3, Reps: 5, Warm: time.Second}
	smokeSizes = sizes{SF: 0.2, Sel: 0.25, IngestSF: 0.2, Claims: 500, Nodes: 4, Setups: 1, Reps: 1}
)

// variant selects what a repetition runs besides the workload's default
// job stream.
type variant int

const (
	plain    variant = iota
	noEvents         // engine timeline capture off (EventCap −1): prices trace recording
	twin             // q5_script's compiled twin jobs: the slowdown denominator
)

// workload is one named benchmark workload. The runner calls prepare once,
// then setup (timed), rep any number of times, teardown; workloads whose
// repetitions consume their state (freshPerRep) get a set-up per
// repetition instead.
type workload interface {
	// prepare generates inputs and expected answers from the seed. It is
	// the benchmark's own work, so it is not part of setup_s.
	prepare(seed int64, sz sizes) error
	// describe states the prepared workload's sizes for the report.
	describe() string
	// setup builds the system under test.
	setup(ctx context.Context) error
	// rep drives the closed loop for d and returns what it measured. A
	// non-nil tracer makes it the traced repetition.
	rep(ctx context.Context, d time.Duration, v variant, tr *tracer) repStats
	// layers turns the traced run into this workload's per-layer metrics,
	// running its single-threaded probes on the way. It is called before
	// teardown, after every repetition.
	layers(ctx context.Context, r *runData) map[string]float64
	// teardown releases what setup built.
	teardown()
	// freshPerRep reports whether each repetition needs its own set-up.
	freshPerRep() bool
	// variants lists the extra untraced variants the traced run measures.
	variants() []variant
}

// repStats is what one repetition measured.
type repStats struct {
	wallS       float64
	cpuS        float64
	mallocs     uint64
	allocBytes  uint64
	recordsRead int64
	latMs       []float64 // verified jobs only
	attempted   int
	failed      int
	failures    []string           // first few failure messages
	extra       map[string]float64 // workload-specific measurements of this repetition
}

// jobs is the number of verified jobs: the denominator of every per-job
// metric. (attempted and failed also count a workload's one-off checks.)
func (s *repStats) jobs() int { return len(s.latMs) }

// fail counts one failed or wrong-answer job.
func (s *repStats) fail(msg string) {
	s.failed++
	if len(s.failures) < 5 {
		s.failures = append(s.failures, msg)
	}
}

// runData is everything one run of one workload produced.
type runData struct {
	name     string
	sizes    string // the workload's describe()
	seed     int64
	setupS   []float64
	reps     []repStats             // the end-to-end run's repetitions
	byVar    map[variant][]repStats // the traced run's untraced baselines, plain included
	traced   *repStats
	tr       *tracer
	perLayer map[string]float64
	notes    []string
}

// procCounters snapshots the process-wide counters a repetition is charged
// with. ReadMemStats stops the world, so it only runs between repetitions.
type procCounters struct {
	cpuS    float64
	mallocs uint64
	bytes   uint64
}

func readProc() procCounters {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return procCounters{cpuS: tv(ru.Utime) + tv(ru.Stime), mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

// measure runs body between two counter snapshots and fills the
// process-wide fields of its repStats. A forced collection first puts every
// repetition on the same heap footing.
func measure(recordsRead func() int64, body func(s *repStats)) repStats {
	var s repStats
	runtime.GC()
	rr0 := recordsRead()
	p0 := readProc()
	t0 := time.Now()
	body(&s)
	s.wallS = time.Since(t0).Seconds()
	p1 := readProc()
	s.cpuS = p1.cpuS - p0.cpuS
	s.mallocs = p1.mallocs - p0.mallocs
	s.allocBytes = p1.bytes - p0.bytes
	s.recordsRead = recordsRead() - rr0
	return s
}

// closedLoop drives `clients` goroutines, each issuing its next job only
// after the previous one answered, for about d. A client's jobs come in
// passes of `pass` jobs — one cycle of the workload's job stream, or 1 when
// every job is the same — and a client stops only between passes: after
// each it starts another only if, going by the one just finished, that one
// would also end within d. The first pass always runs. Every repetition
// therefore holds whole passes of the stream, so its per-job figures
// describe the same mix of jobs as every other repetition's. job returns an
// error for a failed or wrong-answer job; its latency is then not a sample.
func closedLoop(d time.Duration, clients, pass int, recordsRead func() int64, job func(client int) error) repStats {
	return measure(recordsRead, func(s *repStats) {
		deadline := time.Now().Add(d)
		var mu sync.Mutex
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				var lat []float64
				var errs []string
				n := 0
				for {
					passStart := time.Now()
					for i := 0; i < pass; i++ {
						t0 := time.Now()
						err := job(c)
						n++
						if err != nil {
							errs = append(errs, err.Error())
							continue
						}
						lat = append(lat, float64(time.Since(t0))/1e6)
					}
					if now := time.Now(); now.Add(now.Sub(passStart)).After(deadline) {
						break
					}
				}
				mu.Lock()
				s.attempted += n
				s.latMs = append(s.latMs, lat...)
				for _, e := range errs {
					s.fail(e)
				}
				mu.Unlock()
			}(c)
		}
		wg.Wait()
	})
}

// cursor hands out positions in a workload's seeded job stream; it keeps
// counting across repetitions so every repetition continues the cycle.
type cursor struct{ n atomic.Int64 }

func (c *cursor) next(mod int) int { return int((c.n.Add(1) - 1) % int64(mod)) }

// runner steps one workload through a run so that several runners can be
// interleaved repetition by repetition.
type runner struct {
	w    workload
	sz   sizes
	data *runData
	up   bool
}

func newRunner(def workloadDef, seed int64, sz sizes) (*runner, error) {
	r := &runner{w: def.New(), sz: sz, data: &runData{name: def.Name, seed: seed, byVar: map[variant][]repStats{}}}
	if err := r.w.prepare(seed, sz); err != nil {
		return nil, fmt.Errorf("%s: prepare: %w", def.Name, err)
	}
	r.data.sizes = r.w.describe()
	return r, nil
}

// timedSetup sets the workload up and records how long that took.
func (r *runner) timedSetup(ctx context.Context) error {
	runtime.GC()
	t0 := time.Now()
	if err := r.w.setup(ctx); err != nil {
		return fmt.Errorf("%s: setup: %w", r.data.name, err)
	}
	r.data.setupS = append(r.data.setupS, time.Since(t0).Seconds())
	r.up = true
	return nil
}

func (r *runner) down() {
	if r.up {
		r.w.teardown()
		r.up = false
	}
}

// start performs the timed set-ups (keeping the last) and the warm-up.
func (r *runner) start(ctx context.Context) error {
	if r.w.freshPerRep() {
		return nil
	}
	for i := 0; i < r.sz.Setups; i++ {
		r.down()
		if err := r.timedSetup(ctx); err != nil {
			return err
		}
	}
	if r.sz.Warm > 0 {
		r.w.rep(ctx, r.sz.Warm, plain, nil)
	}
	return nil
}

// step runs one repetition of d.
func (r *runner) step(ctx context.Context, d time.Duration, v variant, tr *tracer) (repStats, error) {
	if r.w.freshPerRep() {
		r.down()
		if err := r.timedSetup(ctx); err != nil {
			return repStats{}, err
		}
	}
	return r.w.rep(ctx, d, v, tr), nil
}

// endToEndStep runs one of the end-to-end run's repetitions: total seconds
// split evenly between them.
func (r *runner) endToEndStep(ctx context.Context, total time.Duration) error {
	s, err := r.step(ctx, total/time.Duration(r.sz.Reps), plain, nil)
	if err != nil {
		return err
	}
	r.data.reps = append(r.data.reps, s)
	return nil
}

// tracedRun measures, in equal slices of total: one untraced repetition per
// variant (the baselines the traced numbers are compared with), then the
// traced repetition; then the workload's probes.
func (r *runner) tracedRun(ctx context.Context, total time.Duration, spansPath string) error {
	phases := append([]variant{plain}, r.w.variants()...)
	d := total / time.Duration(len(phases)+1)
	for _, v := range phases {
		s, err := r.step(ctx, d, v, nil)
		if err != nil {
			return err
		}
		r.data.byVar[v] = append(r.data.byVar[v], s)
	}
	r.data.tr = newTracer()
	s, err := r.step(ctx, d, plain, r.data.tr)
	if err != nil {
		return err
	}
	r.data.traced = &s
	r.data.perLayer = r.w.layers(ctx, r.data)
	if spansPath != "" {
		if err := r.data.tr.writeChrome(spansPath); err != nil {
			return fmt.Errorf("%s: write spans: %w", r.data.name, err)
		}
	}
	return nil
}
