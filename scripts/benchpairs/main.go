// Command benchpairs compares two checkouts of this repository on the
// benchmark that BENCHMARK.json declares. It runs alternating parent/change
// pairs of one workload at one seed through each side's own
// lakebench/run.sh, which builds that side's lakebench from its own source
// into its own .bench_build/; the side that runs first alternates from pair
// to pair. It prints a table: each metric's median and quartiles on both
// sides, the change's median delta, its wins over the pairs, the median and
// range of the per-pair change ÷ parent ratio, and a verdict against the
// metric's direction and bound in the parent's BENCHMARK.json.
//
//	go run ./scripts/benchpairs -workload q5_cpu -seed 1 -pairs 10 PARENT CHANGE
//
// -randlayout 1,2,3 instead builds both sides with -ldflags=-randlayout=N,
// in run.sh's build environment, pair i using the i-th layout (cycling), so
// the comparison does not rest on one link layout. Neither checkout is
// modified outside its .bench_build/.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// result is the JSON line a lakebench run prints last.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// metricSpec is a metric's direction and regression bound (0: none) as
// BENCHMARK.json declares them.
type metricSpec struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// side is one checkout and the lakebench binaries built from it, by layout.
type side struct {
	label, root string
	bins        map[int]string
}

func main() {
	var (
		workload = flag.String("workload", "q5_cpu", "workload every run measures")
		seed     = flag.Int64("seed", 1, "seed every run uses")
		seconds  = flag.Float64("seconds", 15, "seconds one run measures")
		traced   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
		pairs    = flag.Int("pairs", 10, "parent/change pairs")
		layouts  = flag.String("randlayout", "", "comma-separated -randlayout seeds, cycled over the pairs (empty: the default layout)")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: benchpairs [flags] PARENT CHANGE\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 || *pairs < 1 {
		flag.Usage()
		os.Exit(2)
	}
	lays := []int{0} // 0: the default layout, built and run by run.sh
	if *layouts != "" {
		lays = lays[:0]
		for _, f := range strings.Split(*layouts, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n == 0 {
				fatalf("-randlayout: %q is not a non-zero seed", f)
			}
			lays = append(lays, n)
		}
	}
	sides := [2]*side{{label: "parent", root: flag.Arg(0)}, {label: "change", root: flag.Arg(1)}}
	for _, s := range sides {
		abs, err := filepath.Abs(s.root)
		if err != nil {
			fatalf("%v", err)
		}
		s.root, s.bins = abs, map[int]string{}
		for _, l := range lays {
			if l == 0 {
				continue
			}
			if s.bins[l], err = build(s.root, l); err != nil {
				fatalf("build %s (layout %d): %v", s.root, l, err)
			}
		}
	}
	specs, err := readSpecs(filepath.Join(sides[0].root, "BENCHMARK.json"))
	if err != nil {
		fatalf("%v", err)
	}
	args := []string{"--workload", *workload, "--seed", fmt.Sprint(*seed), "--seconds", fmt.Sprint(*seconds), "--trace", fmt.Sprint(*traced)}
	var runs [2][]result
	for i := 0; i < *pairs; i++ {
		l := lays[i%len(lays)]
		for _, k := range [2]int{i % 2, 1 - i%2} {
			fmt.Fprintf(os.Stderr, "benchpairs: %s pair %d/%d layout %d: %s\n", *workload, i+1, *pairs, l, sides[k].label)
			r, err := run(sides[k], l, args)
			if err != nil {
				fatalf("%s %s: %v", sides[k].label, *workload, err)
			}
			runs[k] = append(runs[k], r)
		}
	}
	heading := fmt.Sprintf("%s seed %d", *workload, *seed)
	if *layouts != "" {
		heading += fmt.Sprintf(" (-randlayout %s)", *layouts)
	}
	if err := report(os.Stdout, heading, runs, specs); err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchpairs: "+format+"\n", args...)
	os.Exit(1)
}

// build compiles root's lakebench linked at a non-zero -randlayout seed, in
// the build environment lakebench/run.sh sets up — Go's build cache, module
// cache and configuration under root/.bench_build, no network, the local
// toolchain — and returns the binary's path.
func build(root string, layout int) (string, error) {
	dir := filepath.Join(root, ".bench_build")
	bin := filepath.Join(dir, fmt.Sprintf("lakebench-randlayout%d.bin", layout))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, fmt.Sprintf("-ldflags=-randlayout=%d", layout), ".")
	cmd.Dir = filepath.Join(root, "lakebench")
	cmd.Env = append(os.Environ(),
		"GOCACHE="+filepath.Join(dir, "go-cache"), "GOMODCACHE="+filepath.Join(dir, "go-mod"),
		"XDG_CONFIG_HOME="+filepath.Join(dir, "config"),
		"GOFLAGS=-modcacherw", "GOTOOLCHAIN=local", "GOPROXY=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("%v\n%s", err, out)
	}
	return bin, nil
}

// run runs one lakebench on the side — through its lakebench/run.sh at the
// default layout, else the binary build made, with the arguments run.sh
// adds — and decodes the result line it prints last.
func run(s *side, layout int, args []string) (result, error) {
	var stdout, stderr bytes.Buffer
	cmd := exec.Command("bash", append([]string{filepath.Join(s.root, "lakebench", "run.sh")}, args...)...)
	if layout != 0 {
		cmd = exec.Command(s.bins[layout], append([]string{"-out", filepath.Join(s.root, ".bench_build", "lakebench")}, args...)...)
	}
	cmd.Dir, cmd.Stdout, cmd.Stderr = s.root, &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return result{}, fmt.Errorf("%v\n%s", err, tail(stderr.String(), 2000))
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return result{}, fmt.Errorf("result line: %v", err)
	}
	return r, nil
}

func tail(s string, n int) string { return s[max(0, len(s)-n):] }

// readSpecs reads every metric's direction and bound from BENCHMARK.json.
func readSpecs(path string) (map[string]metricSpec, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	specs := map[string]metricSpec{}
	for _, m := range append(doc.EndToEnd, doc.PerLayer...) {
		specs[m.Name] = m
	}
	if len(doc.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s declares no end_to_end metric", path)
	}
	return specs, nil
}

// report prints one workload's table: a heading with the operations each
// side attempted and failed, then one row per metric, by name. A measured
// metric that specs does not declare is an error: its verdict would rest on
// a guessed direction and no bound.
func report(w io.Writer, heading string, runs [2][]result, specs map[string]metricSpec) error {
	var attempted, failed [2]int
	correct := true
	names := map[string]bool{}
	for k := range runs {
		for _, r := range runs[k] {
			attempted[k] += r.Attempted
			failed[k] += r.Failed
			correct = correct && r.Correct
			for name := range r.Metrics {
				names[name] = true
			}
		}
	}
	verdictRuns := "every run correct"
	if !correct {
		verdictRuns = "SOME RUNS INCORRECT"
	}
	fmt.Fprintf(w, "#### %s (%d pairs) failed parent %d of %d, change %d of %d; %s\n",
		heading, len(runs[0]), failed[0], attempted[0], failed[1], attempted[1], verdictRuns)
	fmt.Fprintln(w, "| metric | parent median [q1–q3] | change median [q1–q3] | Δ median | change wins | per-pair ratio median [min–max] | verdict |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|")
	sorted := make([]string, 0, len(names))
	for name := range names {
		if _, ok := specs[name]; !ok {
			return fmt.Errorf("metric %q is not declared in BENCHMARK.json", name)
		}
		sorted = append(sorted, name)
	}
	sort.Strings(sorted)
	for _, name := range sorted {
		var a, b []float64
		for i := range runs[0] {
			a = append(a, runs[0][i].Metrics[name].Value)
			b = append(b, runs[1][i].Metrics[name].Value)
		}
		c := compare(a, b, specs[name])
		wins := fmt.Sprintf("%d/%d", c.wins, len(a))
		if c.ties > 0 {
			wins += fmt.Sprintf(" (%d ties)", c.ties)
		}
		fmt.Fprintf(w, "| `%s` | %s [%s–%s] | %s [%s–%s] | %s | %s | %s | %s |\n", name,
			num(c.a[1]), num(c.a[0]), num(c.a[2]), num(c.b[1]), num(c.b[0]), num(c.b[2]),
			pct(c.a[1], c.b[1]), wins, ratios(c.ratio), c.verdict)
	}
	fmt.Fprintln(w)
	return nil
}

// comparison is one metric over the pairs: each side's quartiles (q1,
// median, q3), the pairs the change won and tied, the sorted per-pair
// ratios, and the verdict.
type comparison struct {
	a, b       [3]float64
	wins, ties int
	ratio      []float64
	verdict    string
}

// compare judges one metric. The change is better when its median beats
// the parent's by more than the parent's interquartile distance and it wins
// at least nine pairs in ten ("every run" when it wins them all); worse
// over bound when its median is worse by more than the metric's bound;
// worse within bound when it loses the same way it would have to win;
// unchanged when the medians lie within the parent's interquartile
// distance; otherwise unresolved. A parent whose interquartile distance is
// wider than the metric's bound cannot show a move within the bound: such a
// metric is better only if every change run beats every parent run, worse
// over bound as above, and otherwise unresolved, never unchanged.
func compare(a, b []float64, spec metricSpec) comparison {
	c := comparison{a: quartiles(a), b: quartiles(b)}
	sign := 1.0 // gain = sign·(change − parent)
	if spec.Better != "higher" {
		sign = -1
	}
	losses := 0
	bestParent, worstChange := math.Inf(-1), math.Inf(1) // in gain terms
	for i := range a {
		switch d := sign * (b[i] - a[i]); {
		case d > 0:
			c.wins++
		case d < 0:
			losses++
		default:
			c.ties++
		}
		if a[i] > 0 { // a ratio to a zero or negative base says nothing
			c.ratio = append(c.ratio, b[i]/a[i])
		}
		bestParent, worstChange = max(bestParent, sign*a[i]), min(worstChange, sign*b[i])
	}
	sort.Float64s(c.ratio)
	gain, spread, n := sign*(c.b[1]-c.a[1]), c.a[2]-c.a[0], len(a)
	wide := spec.Bound > 0 && spread > spec.Bound*math.Abs(c.a[1])
	better := gain > spread && 10*c.wins >= 9*n && (!wide || worstChange > bestParent)
	switch {
	case better && c.wins == n:
		c.verdict = "better (every run)"
	case better:
		c.verdict = "better"
	case spec.Bound > 0 && -gain > spec.Bound*math.Abs(c.a[1]):
		c.verdict = "WORSE, over bound"
	case wide:
		c.verdict = "unresolved"
	case -gain > spread && 10*losses >= 9*n:
		c.verdict = "worse, within bound"
	case math.Abs(gain) <= spread:
		c.verdict = "unchanged"
	default:
		c.verdict = "unresolved"
	}
	return c
}

// quartiles returns the first quartile, median and third quartile of xs;
// the quartiles by nearest rank, the median as lakebench takes it.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	rank := func(q float64) float64 { return s[min(n, max(1, int(math.Ceil(q*float64(n)))))-1] }
	med := s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	return [3]float64{rank(0.25), med, rank(0.75)}
}

// num prints v to four significant figures, trailing zeros kept, or from
// 1 000 up as a whole number with its thousands grouped by a space.
func num(v float64) string {
	if math.Abs(v) >= 1000 {
		s := strconv.FormatInt(int64(math.Round(math.Abs(v))), 10)
		for i := len(s) - 3; i > 0; i -= 3 {
			s = s[:i] + " " + s[i:]
		}
		if v < 0 {
			s = "-" + s
		}
		return s
	}
	return fmt.Sprintf("%#.4g", v)
}

// pct prints the change's median relative to the parent's.
func pct(a, b float64) string {
	if a <= 0 {
		return "—"
	}
	return fmt.Sprintf("%+.1f %%", 100*(b-a)/a)
}

// ratios prints the per-pair ratios' median and range.
func ratios(r []float64) string {
	if len(r) == 0 {
		return "—"
	}
	q := quartiles(r)
	return fmt.Sprintf("%.3f [%.3f–%.3f]", q[1], r[0], r[len(r)-1])
}
