// Package obs is the one metrics registry of every LakeHarbor debug
// surface: lakeserve's /debug/metrics, the lakenode sidecar, and the
// federation layer. Each lakeharbor_* family is declared once, at package
// level, by the package that renders it (NewCounter, NewGauge, NewSummary),
// and Families lists the declarations — the README's metrics reference is
// generated from them. One Writer renders every sample of a scrape and owns
// the text format: it groups each family's samples under one HELP/TYPE
// header, orders families by name and series by labels, keeps the first of
// a repeated series, writes no header for a family without samples, and
// escapes label values.
package obs

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"lakeharbor/internal/trace"
)

// Family is one declared metric family.
type Family struct {
	Name string
	// Type is "counter", "gauge" or "summary".
	Type string
	Help string
	// Labels are the label names, in the order samples pass their values.
	// A summary's quantile label is implicit.
	Labels []string

	quantiles []float64 // summary: the exported quantiles
	scale     float64   // summary: recorded unit → exported unit
}

var (
	declared  = map[string]*Family{}
	validName = regexp.MustCompile(`^lakeharbor_[a-z0-9_]+$`)
)

// declare registers f, panicking on a name that breaks the exposition
// format's naming rules or is already declared: both are bugs that every
// test binary linking the declaring package reports at init.
func declare(f *Family) *Family {
	switch {
	case !validName.MatchString(f.Name):
		panic(fmt.Sprintf("obs: family %q does not match lakeharbor_[a-z0-9_]+", f.Name))
	case f.Type == "counter" && !strings.HasSuffix(f.Name, "_total"):
		panic(fmt.Sprintf("obs: counter %q lacks the _total suffix", f.Name))
	case f.Type != "counter" && strings.HasSuffix(f.Name, "_total"):
		panic(fmt.Sprintf("obs: %s %q ends in _total, a counter suffix", f.Type, f.Name))
	case declared[f.Name] != nil:
		panic(fmt.Sprintf("obs: family %q declared twice", f.Name))
	}
	declared[f.Name] = f
	return f
}

// NewCounter declares a counter family with the given label names.
func NewCounter(name, help string, labels ...string) *Family {
	return declare(&Family{Name: name, Type: "counter", Help: help, Labels: labels})
}

// NewGauge declares a gauge family with the given label names.
func NewGauge(name, help string, labels ...string) *Family {
	return declare(&Family{Name: name, Type: "gauge", Help: help, Labels: labels})
}

// NewSummary declares a summary family rendered from histogram snapshots:
// the given quantiles plus _sum and _count, with every recorded value
// multiplied by scale (1e-9 turns nanoseconds into seconds).
func NewSummary(name, help string, scale float64, quantiles []float64, labels ...string) *Family {
	return declare(&Family{Name: name, Type: "summary", Help: help, Labels: labels, quantiles: quantiles, scale: scale})
}

// Families returns every declared family, sorted by name.
func Families() []Family {
	out := make([]Family, 0, len(declared))
	for _, f := range declared {
		out = append(out, *f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Writer collects one scrape's samples and renders them as Prometheus text
// (format 0.0.4). The zero value is ready to use; a Writer is not safe for
// concurrent use.
type Writer struct {
	fams map[*Family][]series
}

// series is one label set of a family and its rendered sample lines (one
// line, or a summary's quantile, _sum and _count lines).
type series struct{ labels, text string }

// Sample records one counter or gauge sample; labelValues pair with the
// family's label names.
func (w *Writer) Sample(f *Family, v float64, labelValues ...string) {
	if f.Type == "summary" {
		panic("obs: Sample on summary " + f.Name)
	}
	labels := f.render(labelValues)
	w.add(f, labels, line(f.Name, labels, v))
}

// Summary records one summary series from a histogram snapshot.
func (w *Writer) Summary(f *Family, s trace.HistSnapshot, labelValues ...string) {
	if f.Type != "summary" {
		panic("obs: Summary on " + f.Type + " " + f.Name)
	}
	labels := f.render(labelValues)
	var b strings.Builder
	for _, q := range f.quantiles {
		ql := `quantile="` + strconv.FormatFloat(q, 'g', -1, 64) + `"`
		if labels != "" {
			ql = labels + "," + ql
		}
		b.WriteString(line(f.Name, ql, float64(s.Quantile(q))*f.scale))
	}
	b.WriteString(line(f.Name+"_sum", labels, float64(s.Sum)*f.scale))
	b.WriteString(line(f.Name+"_count", labels, float64(s.Count)))
	w.add(f, labels, b.String())
}

func (w *Writer) add(f *Family, labels, text string) {
	if w.fams == nil {
		w.fams = make(map[*Family][]series)
	}
	w.fams[f] = append(w.fams[f], series{labels, text})
}

// WriteTo renders every family that has samples: sorted by name, one
// HELP/TYPE header each, series sorted by labels, a repeated series kept
// once (the first recorded wins).
func (w *Writer) WriteTo(out io.Writer) (int64, error) {
	fams := make([]*Family, 0, len(w.fams))
	for f := range w.fams {
		fams = append(fams, f)
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].Name < fams[j].Name })
	var b bytes.Buffer
	for _, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.Name, helpEscaper.Replace(f.Help), f.Name, f.Type)
		ss := w.fams[f]
		sort.SliceStable(ss, func(i, j int) bool { return ss[i].labels < ss[j].labels })
		for i, s := range ss {
			if i == 0 || s.labels != ss[i-1].labels {
				b.WriteString(s.text)
			}
		}
	}
	return b.WriteTo(out)
}

var (
	labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
)

// render formats a label set as `k1="v1",k2="v2"` with values escaped as
// the text format specifies.
func (f *Family) render(values []string) string {
	if len(values) != len(f.Labels) {
		panic(fmt.Sprintf("obs: %s takes labels %v, got %d values", f.Name, f.Labels, len(values)))
	}
	var b strings.Builder
	for i, v := range values {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(f.Labels[i])
		b.WriteString(`="`)
		labelEscaper.WriteString(&b, v) //nolint:errcheck
		b.WriteByte('"')
	}
	return b.String()
}

// line renders one sample line. Integral values print as integers, others
// in the shortest %g form.
func line(name, labels string, v float64) string {
	if labels != "" {
		name += "{" + labels + "}"
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return name + " " + strconv.FormatInt(int64(v), 10) + "\n"
	}
	return name + " " + strconv.FormatFloat(v, 'g', -1, 64) + "\n"
}

var (
	buildInfo = NewGauge("lakeharbor_build_info", "Build and runtime identity (always 1).", "component", "go")
	uptime    = NewGauge("lakeharbor_uptime_seconds", "Seconds since the process started.")
)

// Serve answers one scrape: the identity series every component exports
// (lakeharbor_build_info{component,go} and the uptime gauge) plus whatever
// collect renders.
func Serve(rw http.ResponseWriter, component string, start time.Time, collect func(*Writer)) {
	var w Writer
	w.Sample(buildInfo, 1, component, runtime.Version())
	w.Sample(uptime, time.Since(start).Seconds())
	collect(&w)
	rw.Header().Set("Content-Type", "text/plain; version=0.0.4")
	w.WriteTo(rw) //nolint:errcheck // the scraper sees a short body
}
