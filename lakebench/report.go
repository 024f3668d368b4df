package main

import (
	"fmt"
	"math"
)

// value is one reported number: the median over n samples and their MAD.
type value struct {
	v, mad float64
	n      int
	note   string
}

func over(samples []float64) value {
	return value{v: median(samples), mad: mad(samples), n: len(samples)}
}

// endToEndValues computes every end-to-end metric of a run. Timings — which
// a noisy neighbour can disturb for a repetition — are medians over the
// repetitions. Counts per job do not depend on the machine, only on which
// jobs of the stream a repetition happened to hold, so they are taken over
// all repetitions together (their MAD still shows the per-repetition
// spread). p90 is taken over all repetitions' jobs so that it has enough
// samples beyond it.
func endToEndValues(d *runData) map[string]value {
	var p50, jps, cpu, allocs, kb, ra, all []float64
	var jobs, mallocs, bytes, reads float64
	for _, r := range d.reps {
		n := float64(r.jobs())
		if n == 0 {
			continue
		}
		jobs, mallocs, bytes, reads = jobs+n, mallocs+float64(r.mallocs), bytes+float64(r.allocBytes), reads+float64(r.recordsRead)
		p50 = append(p50, median(r.latMs))
		jps = append(jps, n/r.wallS)
		cpu = append(cpu, r.cpuS*1e3/n)
		allocs = append(allocs, float64(r.mallocs)/n)
		kb = append(kb, float64(r.allocBytes)/1024/n)
		ra = append(ra, float64(r.recordsRead)/n)
		all = append(all, r.latMs...)
	}
	p90, used := tailPercentile(sorted(all), 0.9)
	p90v := value{v: p90, n: len(all)}
	if used != 0.9 && len(all) > 0 {
		p90v.note = fmt.Sprintf("p%.0f: too few jobs for p90", used*100)
	}
	pooled := func(perRep []float64, total float64) value {
		v := over(perRep)
		if jobs > 0 {
			v.v = total / jobs
		}
		return v
	}
	return map[string]value{
		"setup_s":                 over(d.setupS),
		"job_ms_p50":              over(p50),
		"job_ms_p90":              p90v,
		"jobs_per_s":              over(jps),
		"cpu_ms_per_job":          over(cpu),
		"allocs_per_job":          pooled(allocs, mallocs),
		"alloc_kb_per_job":        pooled(kb, bytes/1024),
		"record_accesses_per_job": pooled(ra, reads),
	}
}

// tally sums attempted and failed operations over every repetition of the
// run and collects the first failure messages.
func tally(d *runData) (attempted, failed int, failures []string) {
	add := func(r repStats) {
		attempted += r.attempted
		failed += r.failed
		failures = append(failures, r.failures...)
	}
	for _, r := range d.reps {
		add(r)
	}
	for _, rs := range d.byVar {
		for _, r := range rs {
			add(r)
		}
	}
	if d.traced != nil {
		add(*d.traced)
	}
	return attempted, failed, failures
}

// runResult is the driver's result line.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result assembles the result line: every end-to-end metric (mode 0) or
// every per-layer metric (mode 1; 0 for a layer the workload does not run).
func result(d *runData, mode int) runResult {
	metrics := map[string]metricValue{}
	correct := true
	if mode == 0 {
		vals := endToEndValues(d)
		for _, m := range endToEnd {
			v := vals[m.Name].v
			// An end-to-end metric is never zero on a run that worked.
			correct = correct && v > 0 && !math.IsNaN(v) && !math.IsInf(v, 0)
			metrics[m.Name] = metricValue{v, m.Unit}
		}
	} else {
		for _, m := range perLayer {
			v := d.perLayer[m.Name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v, correct = 0, false
			}
			metrics[m.Name] = metricValue{v, m.Unit}
		}
	}
	attempted, failed, _ := tally(d)
	if attempted == 0 {
		attempted, failed = 1, 1
	}
	return runResult{Correct: correct && failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}
}

// printRun prints every metric of a run by name, with unit, median, MAD
// and sample count.
func printRun(d *runData, mode int) {
	attempted, failed, failures := tally(d)
	fmt.Printf("\n== %s  (seed %d; %s)\n   attempted %d, failed %d, failed_frac %.4g\n",
		d.name, d.seed, d.sizes, attempted, failed, float64(failed)/math.Max(1, float64(attempted)))
	for _, f := range failures {
		fmt.Printf("   FAILED: %s\n", f)
	}
	if mode != 1 {
		vals := endToEndValues(d)
		fmt.Printf("   %-34s %14s %12s %6s  %s\n", "end-to-end", "median", "MAD", "n", "unit")
		for _, m := range endToEnd {
			v := vals[m.Name]
			madS := fmt.Sprintf("%12.4g", v.mad)
			if m.Name == "job_ms_p90" {
				madS = fmt.Sprintf("%12s", "-") // one pooled sample set, not a median of repetitions
			}
			help := m.Help
			if v.note != "" {
				help = v.note
			}
			fmt.Printf("   %-34s %14.6g %s %6d  %-6s %s\n", m.Name, v.v, madS, v.n, m.Unit, help)
		}
	}
	if mode != 0 && d.perLayer != nil {
		fmt.Printf("   %-34s %14s  %s   (traced repetition: %d jobs; probes)\n", "per-layer", "value", "unit", d.traced.jobs())
		for _, m := range perLayer {
			if v, ok := d.perLayer[m.Name]; ok {
				fmt.Printf("   %-34s %14.6g  %-7s %s\n", m.Name, v, m.Unit, m.Help)
			}
		}
	}
	for _, n := range d.notes {
		fmt.Printf("   note: %s\n", n)
	}
}

// printAA prints, per workload × end-to-end metric, both runs' medians,
// their relative difference in the metric's worse direction, and whether
// that is within the metric's bound.
func printAA(a, b []*runData) {
	fmt.Printf("\n== A/A: the same code, seed and sizes, run twice\n")
	fmt.Printf("   %-14s %-26s %12s %12s %8s %6s  %s\n", "workload", "metric", "A", "B", "diff", "bound", "")
	outside := 0
	for i := range a {
		va, vb := endToEndValues(a[i]), endToEndValues(b[i])
		for _, m := range endToEnd {
			x, y := va[m.Name].v, vb[m.Name].v
			worse := (y - x) / x
			if m.Better == "higher" {
				worse = (x - y) / x
			}
			verdict := "within"
			if math.Abs(worse) > m.Bound {
				verdict = "OUTSIDE"
				outside++
			}
			fmt.Printf("   %-14s %-26s %12.5g %12.5g %+7.1f%% %5.0f%%  %s\n", a[i].name, m.Name, x, y, worse*100, m.Bound*100, verdict)
		}
	}
	fmt.Printf("   %d pairings outside their bound\n", outside)
}
