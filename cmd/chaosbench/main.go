// Command chaosbench runs the differential oracle (internal/oracle) over N
// seeded scenarios, each at every point of the axes product — plane (sim |
// net) × functions (compiled | script) × structures (hand-built | managed |
// recovered) × faults (off | on) × dispatch (pool | sched) × batch (drawn |
// 1), 96 points — and exits non-zero on any divergence, a leaked
// connection, or a sweep of ten or more seeds that never hedged a request
// or never fired a fault on a plane it armed faults on. Each failure prints the
// command that replays it: the seed and the minimal point. With -timeline
// DIR a divergence also writes the minimal point's Perfetto timeline and a
// repro file into DIR.
//
// Usage:
//
//	go run ./cmd/chaosbench [-seed 1] [-n 25] [-axes plane=net,functions=script]
//	    [-v] [-timeline oracle-artifacts]
//
// -axes restricts the product with axis=value terms; terms on one axis add
// up, and an axis no term names keeps every value.
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

func main() {
	var (
		seed    = flag.Int64("seed", 1, "first scenario seed; scenario i uses seed+i")
		n       = flag.Int("n", 25, "number of seeded scenarios to run")
		axes    = flag.String("axes", "", "comma-separated axis=value terms restricting the points run (empty: all 96)")
		verbose = flag.Bool("v", false, "print every point of every scenario, not only divergent ones")
		tlDir   = flag.String("timeline", "", "write failing-point timelines and repro files into this directory")
	)
	flag.Parse()

	x, err := oracle.ParseAxes(*axes)
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaosbench: -axes: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	ctx := context.Background()
	start := time.Now()
	var sweep oracle.Sweep
	points := 0
	for i := 0; i < *n; i++ {
		s := *seed + int64(i)
		rep, err := oracle.Run(ctx, s, oracle.Options{Axes: x})
		if err != nil {
			fmt.Fprintf(os.Stderr, "chaosbench: seed %d: harness error: %v\n", s, err)
			os.Exit(2)
		}
		sweep.Add(rep)
		points = len(rep.Points)
		switch {
		case rep.Diverged():
			fmt.Fprintf(os.Stderr, "DIVERGED %s\n  %s\n",
				rep.Repro(), strings.Join(rep.Failures, "\n  "))
			if *tlDir != "" {
				writeArtifacts(*tlDir, rep)
			}
		case *verbose:
			fmt.Printf("ok seed=%d %s\n", s, rep.Desc)
			for _, p := range rep.Points {
				fmt.Printf("  ok %s\n", p)
			}
		}
	}
	fmt.Printf("chaosbench: %d scenarios × %d points (seeds %d..%d), %d divergent, in %v\n",
		*n, points, *seed, *seed+int64(*n)-1, sweep.Divergent, time.Since(start).Round(time.Millisecond))
	fmt.Printf("chaosbench: faults fired: %d sim, %d net; net points: %d hedged attempts, %d leaked connections\n",
		sweep.FaultsFired[0], sweep.FaultsFired[1], sweep.HedgeFires, sweep.LeakedConns)
	vacuous := sweep.Failures()
	for _, f := range vacuous {
		fmt.Fprintln(os.Stderr, "chaosbench: "+f)
	}
	if sweep.Divergent > 0 || len(vacuous) > 0 {
		os.Exit(1)
	}
}

// writeArtifacts dumps a divergent report's minimal-point timeline (Chrome
// trace JSON) and a repro text file into dir. Artifact trouble must not
// mask the divergence itself, so errors only warn.
func writeArtifacts(dir string, rep *oracle.Report) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "chaosbench: %v\n", err)
		return
	}
	repro := fmt.Sprintf("%s\n  %s\n", rep.Repro(), strings.Join(rep.Failures, "\n  "))
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
