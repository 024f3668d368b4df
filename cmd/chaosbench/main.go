// Command chaosbench drives the deterministic chaos + differential oracle
// harness (internal/chaos, internal/oracle) from the command line: it runs
// N seeded scenarios, each executed eight ways (SMPE batched, SMPE
// unbatched, SMPE under an armed chaos schedule, SMPE over a real
// networked data plane — loopback lakenode servers behind multiplexed, hedged
// nodenet clients, clean and under transport chaos — SMPE as a 9:3:1
// three-tenant mix on one shared weighted-fair scheduler, clean and under
// chaos — SMPE against a lifecycle-managed rebuild of the scenario's index
// — built in flight, then evicted and rebuilt on demand — SMPE against a
// crash-recovered replica restored from a mid-workload checkpoint plus WAL
// replay, SMPE with the job's interpreter, referencer, and filter mirrored
// as sandboxed scripts — including an index rebuilt through scripted Spec
// extractors — and baseline scan), and exits non-zero on any divergence. Every
// failure prints a single seed that reproduces it; CI runs a short budget
// with -seed $GITHUB_RUN_ID so each pipeline run explores fresh schedules
// while staying reproducible from the logged seed.
//
// With -timeline DIR, each divergence additionally writes the failing
// arm's event timeline as Chrome trace-event JSON (loadable in Perfetto)
// plus a repro text file — the seed, the failures, and the (shrunk) chaos
// schedule — into DIR, so CI can upload the artifacts of a red run.
//
// Usage:
//
//	go run ./cmd/chaosbench [-seed 1] [-n 25]
//	    [-arms chaos,lifecycle,restart,net,tenants,script]
//	    [-no-shrink] [-v] [-timeline chaos-artifacts]
//
// -arms names the optional arms to run beside the three that always do (SMPE
// batched, SMPE unbatched, baseline scan); the default is all of them.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"lakeharbor/internal/oracle"
)

// allArms is the default of -arms: every optional oracle arm.
const allArms = "chaos,lifecycle,restart,net,tenants,script"

// parseArms turns a comma-separated -arms value into the oracle options that
// enable exactly the named arms. An empty list selects none of them.
func parseArms(list string) (oracle.Options, error) {
	var o oracle.Options
	arm := map[string]*bool{
		"chaos": &o.Chaos, "lifecycle": &o.Lifecycle, "restart": &o.Restart,
		"net": &o.Net, "tenants": &o.Tenants, "script": &o.Script,
	}
	for _, name := range strings.FieldsFunc(list, func(r rune) bool { return r == ',' }) {
		on, ok := arm[strings.TrimSpace(name)]
		if !ok {
			return o, fmt.Errorf("unknown arm %q (arms: %s)", name, allArms)
		}
		*on = true
	}
	return o, nil
}

func main() {
	var (
		seed    = flag.Int64("seed", 1, "first scenario seed; scenario i uses seed+i")
		n       = flag.Int("n", 25, "number of seeded scenarios to run")
		arms    = flag.String("arms", allArms, "comma-separated optional arms to run (empty: the clean differential only)")
		noShrnk = flag.Bool("no-shrink", false, "report chaos divergences without shrinking the schedule")
		verbose = flag.Bool("v", false, "print every scenario, not only divergent ones")
		tlDir   = flag.String("timeline", "", "write failing-arm timelines and repro files into this directory")
	)
	flag.Parse()

	opts, err := parseArms(*arms)
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaosbench: -arms: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	opts.Shrink = opts.Chaos && !*noShrnk
	ctx := context.Background()
	start := time.Now()
	diverged := 0
	var hedges, leaks int64
	for i := 0; i < *n; i++ {
		s := *seed + int64(i)
		rep, err := oracle.Run(ctx, s, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "chaosbench: seed %d: harness error: %v\n", s, err)
			os.Exit(2)
		}
		hedges += rep.NetHedgeFires
		leaks += rep.NetLeakedConns
		switch {
		case rep.Diverged():
			diverged++
			fmt.Fprintf(os.Stderr, "DIVERGED %s\n  %s\n",
				rep.Repro(), strings.Join(rep.Failures, "\n  "))
			if *tlDir != "" {
				writeArtifacts(*tlDir, rep)
			}
		case *verbose:
			fmt.Printf("ok seed=%d %s\n", s, rep.Desc)
		}
	}
	fmt.Printf("chaosbench: %d scenarios (seeds %d..%d), %d divergent, chaos=%v, in %v\n",
		*n, *seed, *seed+int64(*n)-1, diverged, opts.Chaos, time.Since(start).Round(time.Millisecond))
	if opts.Net {
		fmt.Printf("chaosbench: net arm: %d hedged attempts, %d leaked connections\n", hedges, leaks)
		// A sweep that never hedged would leave the tail-latency path
		// untested; a leaked connection is a client bug. Both fail the run
		// even with matching answers.
		if *n >= 10 && hedges == 0 {
			fmt.Fprintln(os.Stderr, "chaosbench: net arm fired no hedged requests across the sweep")
			os.Exit(1)
		}
	}
	if diverged > 0 || leaks > 0 {
		os.Exit(1)
	}
}

// writeArtifacts dumps a divergent report's failing-arm timeline (Chrome
// trace JSON) and a repro text file into dir. Artifact trouble must not
// mask the divergence itself, so errors only warn.
func writeArtifacts(dir string, rep *oracle.Report) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "chaosbench: %v\n", err)
		return
	}
	repro := fmt.Sprintf("%s\n  arm: %s\n  %s\n",
		rep.Repro(), rep.DivergedArm, strings.Join(rep.Failures, "\n  "))
	reproPath := filepath.Join(dir, fmt.Sprintf("chaos_repro_seed%d.txt", rep.Seed))
	if err := os.WriteFile(reproPath, []byte(repro), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "chaosbench: %v\n", err)
	} else {
		fmt.Fprintf(os.Stderr, "  wrote %s\n", reproPath)
	}
	if rep.DivergedTrace == nil {
		return
	}
	tlPath := filepath.Join(dir, fmt.Sprintf("chaos_timeline_seed%d.json", rep.Seed))
	f, err := os.Create(tlPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaosbench: %v\n", err)
		return
	}
	defer f.Close()
	if err := rep.DivergedTrace.WriteChromeTrace(f); err != nil {
		fmt.Fprintf(os.Stderr, "chaosbench: %v\n", err)
		return
	}
	fmt.Fprintf(os.Stderr, "  wrote %s\n", tlPath)
}
