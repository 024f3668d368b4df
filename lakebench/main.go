// Command lakebench is the repository's benchmark: six seeded workloads
// (Q5' on the sim-HDD, the zero-cost sim, the loopback net plane and with
// scripted access methods; Fig. 9 under a two-tenant scheduler; WAL-first
// ingest beside reads with checkpoint and crash recovery), each driven in a
// closed loop from this one process, every answer verified, every number a
// median over repetitions. See README.md beside this file.
//
// The driver contract (BENCHMARK.json at the repository root):
//
//	bash lakebench/run.sh --workload q5_cpu --seed 1 --seconds 15 --trace 0
//
// prints a report and, as the last line of standard output, one JSON object
// {"correct","attempted","failed","metrics"} holding every end-to-end
// metric (--trace 0) or every per-layer metric (--trace 1).
//
// For people:
//
//	bash lakebench/run.sh --workload all [--seed N] [--seconds S] [-aa] [-smoke]
//
// runs all six with their repetitions interleaved round-robin (a noisy
// neighbour then costs each workload one repetition, not one workload all
// of them), followed by each workload's traced run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "all", "workload name, or all")
		seed    = flag.Int64("seed", 1, "seed the inputs are generated from")
		seconds = flag.Float64("seconds", runSeconds, "seconds one run measures")
		traceM  = flag.Int("trace", -1, "0: end-to-end metrics from untraced repetitions; 1: per-layer metrics from a traced repetition and probes; -1: both")
		smoke   = flag.Bool("smoke", false, "tiny sizes and one short repetition: checks the harness, measures nothing")
		aa      = flag.Bool("aa", false, "run the end-to-end suite twice and compare the two sets of medians with the bounds")
		out     = flag.String("out", filepath.Join(".bench_build", "lakebench"), "directory for span files and scratch WALs and snapshots")
		mani    = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if *mani {
		buf, err := manifest()
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(buf))
		return
	}
	sz := fullSizes
	if *smoke {
		sz = smokeSizes
	}
	sz.Scratch = filepath.Join(*out, "scratch")
	if err := os.MkdirAll(sz.Scratch, 0o755); err != nil {
		fatal(err)
	}
	var defs []workloadDef
	for _, d := range workloads {
		if *name == "all" || *name == d.Name {
			defs = append(defs, d)
		}
	}
	if len(defs) == 0 {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	total := time.Duration(*seconds * float64(time.Second))
	fmt.Printf("lakebench: seed %d, %gs per run, nproc %d, GOMAXPROCS %d, %s, commit %s\n",
		*seed, *seconds, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())

	ctx := context.Background()
	if *aa {
		a, err := suite(ctx, defs, *seed, sz, total, 0, *out)
		if err != nil {
			fatal(err)
		}
		b, err := suite(ctx, defs, *seed, sz, total, 0, *out)
		if err != nil {
			fatal(err)
		}
		printAA(a, b)
		return
	}
	runs, err := suite(ctx, defs, *seed, sz, total, *traceM, *out)
	if err != nil {
		fatal(err)
	}
	for _, d := range runs {
		printRun(d, *traceM)
	}
	if len(runs) == 1 && *traceM >= 0 {
		// The driver's result line.
		buf, err := json.Marshal(result(runs[0], *traceM))
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(buf))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lakebench:", err)
	os.Exit(1)
}

// commit is the VCS revision the binary was built from, when the build
// recorded one (a driver checkout is not a git repository).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// suite runs the given workloads: the untraced repetitions interleaved
// round-robin across workloads (mode 0 or -1), then each workload's traced
// run (mode 1 or -1).
func suite(ctx context.Context, defs []workloadDef, seed int64, sz sizes, total time.Duration, mode int, out string) ([]*runData, error) {
	var runners []*runner
	defer func() {
		for _, r := range runners {
			r.down()
		}
	}()
	for _, d := range defs {
		r, err := newRunner(d, seed, sz)
		if err != nil {
			return nil, err
		}
		runners = append(runners, r)
		if err := r.start(ctx); err != nil {
			return nil, err
		}
	}
	if mode != 1 {
		for rep := 0; rep < sz.Reps; rep++ {
			for _, r := range runners {
				if err := r.endToEndStep(ctx, total); err != nil {
					return nil, err
				}
			}
		}
	}
	var runs []*runData
	for _, r := range runners {
		if mode != 0 {
			if err := r.tracedRun(ctx, total, filepath.Join(out, "spans-"+r.data.name+".json")); err != nil {
				return nil, err
			}
		}
		r.down()
		runs = append(runs, r.data)
	}
	return runs, nil
}
