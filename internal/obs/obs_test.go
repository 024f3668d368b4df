package obs

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"lakeharbor/internal/promtext"
	"lakeharbor/internal/trace"
)

var (
	testCounter = NewCounter("lakeharbor_test_x_total", "first family.")
	testGauge   = NewGauge("lakeharbor_test_y", "labeled family.", "node")
	testIdle    = NewGauge("lakeharbor_test_idle", "never sampled.")
	testLabels  = NewGauge("lakeharbor_test_labels", "escaping probe.", "v")
	testSummary = NewSummary("lakeharbor_test_rpc_seconds", "labeled summary.", 1e-9, []float64{0.5, 0.99}, "op")
)

func render(w *Writer) string {
	var b strings.Builder
	w.WriteTo(&b) //nolint:errcheck
	return b.String()
}

// TestWriterGroupsAndDedupes: interleaved samples come out as one group per
// family under one header, families sorted by name and series by labels; a
// repeated series keeps its first value, and a family without samples
// writes nothing.
func TestWriterGroupsAndDedupes(t *testing.T) {
	var w Writer
	w.Sample(testGauge, 3, "b")
	w.Sample(testCounter, 7)
	w.Sample(testGauge, 1, "a")
	w.Sample(testCounter, 9)
	w.Sample(testGauge, 2, "a")
	want := `# HELP lakeharbor_test_x_total first family.
# TYPE lakeharbor_test_x_total counter
lakeharbor_test_x_total 7
# HELP lakeharbor_test_y labeled family.
# TYPE lakeharbor_test_y gauge
lakeharbor_test_y{node="a"} 1
lakeharbor_test_y{node="b"} 3
`
	if got := render(&w); got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
	if strings.Contains(render(&w), testIdle.Name) {
		t.Fatal("a family without samples was written")
	}
}

// TestSummaryLabels: labeled summaries carry the labels on quantile, _sum,
// and _count lines.
func TestSummaryLabels(t *testing.T) {
	var h trace.Histogram
	for i := 0; i < 100; i++ {
		h.Record(int64(i+1) * 1000)
	}
	var w Writer
	w.Summary(testSummary, h.Snapshot(), "scan")
	out := render(&w)
	for _, want := range []string{
		"# TYPE lakeharbor_test_rpc_seconds summary",
		`lakeharbor_test_rpc_seconds{op="scan",quantile="0.5"}`,
		`lakeharbor_test_rpc_seconds{op="scan",quantile="0.99"}`,
		`lakeharbor_test_rpc_seconds_sum{op="scan"}`,
		`lakeharbor_test_rpc_seconds_count{op="scan"} 100`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

// TestLabelValuesRoundTrip: label values survive the writer and the text
// parser unchanged, whatever bytes they carry.
func TestLabelValuesRoundTrip(t *testing.T) {
	values := []string{`quo"te`, `back\slash`, "new\nline", "tab\there", "häfen·湖", `\"` + "\n\\n"}
	var w Writer
	for i, v := range values {
		w.Sample(testLabels, float64(i), v)
	}
	samples, err := promtext.Parse(strings.NewReader(render(&w)))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for _, s := range samples {
		got[s.Label("v")] = s.Value
	}
	for i, v := range values {
		if n, ok := got[v]; !ok || n != float64(i) {
			t.Errorf("label value %q did not survive: parsed %+v", v, samples)
		}
	}
}

// TestDeclareEnforcesNaming: a declaration that breaks the naming rules, or
// repeats a name, panics.
func TestDeclareEnforcesNaming(t *testing.T) {
	for name, declare := range map[string]func(){
		"counter without _total": func() { NewCounter("lakeharbor_test_bad", "") },
		"gauge ending in _total": func() { NewGauge("lakeharbor_test_bad_total", "") },
		"summary ending _total":  func() { NewSummary("lakeharbor_test_bad_total", "", 1, nil) },
		"foreign prefix":         func() { NewGauge("other_metric", "") },
		"upper case":             func() { NewGauge("lakeharbor_Test", "") },
		"hyphenated":             func() { NewGauge("lakeharbor_test-bad", "") },
		"declared twice":         func() { NewCounter(testCounter.Name, "") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: declaration accepted", name)
				}
			}()
			declare()
		}()
	}
}

func TestWriteBuildInfo(t *testing.T) {
	rec := httptest.NewRecorder()
	Serve(rec, "lakeserve", time.Now().Add(-time.Minute), func(*Writer) {})
	out := rec.Body.String()
	if !strings.Contains(out, `lakeharbor_build_info{component="lakeserve",go="go`) {
		t.Fatalf("build info missing identity labels:\n%s", out)
	}
	if !strings.Contains(out, "lakeharbor_uptime_seconds ") {
		t.Fatalf("uptime gauge missing:\n%s", out)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4" {
		t.Fatalf("content type %q", ct)
	}
}
