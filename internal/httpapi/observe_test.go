package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"lakeharbor/internal/obs"
	"lakeharbor/internal/trace"
)

// runJob executes one range job against the test server and returns its
// trace id.
func runJob(t *testing.T, url string) int64 {
	t.Helper()
	var res JobResultJSON
	if code := getJSON(t, url+"/v1/jobs/range?file=events&lo=int:0&hi=int:29", &res); code != 200 {
		t.Fatalf("job failed: %d", code)
	}
	if res.TraceID == 0 {
		t.Fatal("job recorded no trace")
	}
	return res.TraceID
}

func TestDebugTimeline(t *testing.T) {
	srv, _ := newTestServer(t)
	id := runJob(t, srv.URL)

	resp, err := http.Get(fmt.Sprintf("%s/debug/jobs/%d/timeline", srv.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	var doc struct {
		TraceEvents []struct {
			Ph   string  `json:"ph"`
			Name string  `json:"name"`
			TS   float64 `json:"ts"`
		} `json:"traceEvents"`
		OtherData map[string]any `json:"otherData"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("timeline is not valid Chrome trace JSON: %v\n%s", err, body)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("timeline has no events")
	}
	var complete int
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			complete++
		}
	}
	if complete == 0 {
		t.Error("timeline has no complete (task) events")
	}
	if doc.OtherData["job"] != "range:events" {
		t.Errorf("otherData.job = %v", doc.OtherData["job"])
	}

	// Error paths.
	for path, want := range map[string]int{
		"/debug/jobs/999/timeline": 404,
		"/debug/jobs/xyz/timeline": 400,
	} {
		if resp, err := http.Get(srv.URL + path); err != nil {
			t.Fatal(err)
		} else if resp.Body.Close(); resp.StatusCode != want {
			t.Errorf("%s status = %d, want %d", path, resp.StatusCode, want)
		}
	}
}

func TestDebugCritPath(t *testing.T) {
	srv, _ := newTestServer(t)
	runJob(t, srv.URL)

	var out struct {
		Job      string              `json:"job"`
		TraceID  int64               `json:"traceId"`
		Events   int                 `json:"events"`
		Segments []trace.CritSegment `json:"segments"`
	}
	if code := getJSON(t, srv.URL+"/debug/jobs/1/critpath", &out); code != 200 {
		t.Fatalf("status %d", code)
	}
	if out.Job != "range:events" || out.TraceID != 1 || out.Events == 0 {
		t.Fatalf("critpath header = %+v", out)
	}
	if len(out.Segments) == 0 {
		t.Fatal("no critical-path segments for an executed job")
	}
	if len(out.Segments) > 5 {
		t.Fatalf("default k returned %d segments", len(out.Segments))
	}
	for _, s := range out.Segments {
		if s.Span <= 0 || s.End <= s.Start {
			t.Fatalf("degenerate segment %+v", s)
		}
		if s.Phase != "exec" && s.Phase != "queue" {
			t.Fatalf("segment phase %q", s.Phase)
		}
	}

	if code := getJSON(t, srv.URL+"/debug/jobs/1/critpath?k=1", &out); code != 200 {
		t.Fatal("k=1 failed")
	}
	if len(out.Segments) != 1 {
		t.Fatalf("k=1 returned %d segments", len(out.Segments))
	}
	if code := getJSON(t, srv.URL+"/debug/jobs/1/critpath?k=0", nil); code != 400 {
		t.Errorf("k=0 status = %d, want 400", code)
	}
}

// TestDebugJobsListOmitsEvents: the list endpoint strips the (potentially
// huge) event logs, while the by-id endpoint keeps them.
func TestDebugJobsListOmitsEvents(t *testing.T) {
	srv, _ := newTestServer(t)
	runJob(t, srv.URL)

	var traces []*JobTrace
	if code := getJSON(t, srv.URL+"/debug/jobs", &traces); code != 200 {
		t.Fatal("list failed")
	}
	if len(traces) != 1 {
		t.Fatalf("%d traces", len(traces))
	}
	if len(traces[0].Events) != 0 {
		t.Errorf("list response carries %d events, want none", len(traces[0].Events))
	}

	var one JobTrace
	if code := getJSON(t, srv.URL+"/debug/jobs/1", &one); code != 200 {
		t.Fatal("by-id failed")
	}
	if len(one.Events) == 0 {
		t.Error("by-id response lost its events")
	}
}

// TestDebugMetricsQuantiles: /debug/metrics exposes latency quantile
// summaries once a job has run, including I/O round-trip observations.
func TestDebugMetricsQuantiles(t *testing.T) {
	srv, _ := newTestServer(t)
	runJob(t, srv.URL)

	resp, err := http.Get(srv.URL + "/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	out := string(body)
	for _, want := range []string{
		`lakeharbor_task_seconds{quantile="0.5"}`,
		`lakeharbor_task_seconds{quantile="0.9"}`,
		`lakeharbor_task_seconds{quantile="0.99"}`,
		`lakeharbor_queue_wait_seconds{quantile="0.99"}`,
		`lakeharbor_io_local_seconds{quantile="0.99"}`,
		`lakeharbor_io_remote_seconds{quantile="0.99"}`,
		`lakeharbor_batch_size{quantile="0.5"}`,
		"# TYPE lakeharbor_task_seconds summary",
		"lakeharbor_timeline_events_dropped_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// A job actually ran, so the task summary must have observations.
	if strings.Contains(out, "lakeharbor_task_seconds_count 0") {
		t.Error("task latency summary empty after a job ran")
	}
	if strings.Contains(out, "lakeharbor_io_local_seconds_count 0") &&
		strings.Contains(out, "lakeharbor_io_remote_seconds_count 0") {
		t.Error("no I/O round-trip observations after a job ran")
	}
}

// renderJobs returns the job-execution families of one registry as a scrape
// renders them.
func renderJobs(r *trace.Registry) string {
	var w obs.Writer
	collectJobs(&w, r)
	var b strings.Builder
	w.WriteTo(&b) //nolint:errcheck
	return b.String()
}

func TestWriteMetricsSummaries(t *testing.T) {
	r := trace.NewRegistry(0)
	var task, wait trace.Histogram
	task.Record(1_000_000) // 1ms
	wait.Record(2_000_000)
	r.Add(&trace.Snapshot{
		Job:           "j",
		EventsDropped: 7,
		Lat:           trace.Latencies{Task: task.Snapshot(), QueueWait: wait.Snapshot()},
	})
	out := renderJobs(r)
	for _, want := range []string{
		`lakeharbor_task_seconds{quantile="0.5"}`,
		`lakeharbor_task_seconds{quantile="0.99"}`,
		`lakeharbor_queue_wait_seconds{quantile="0.9"}`,
		"lakeharbor_io_local_seconds_count 0",
		"lakeharbor_batch_size_count 0",
		"lakeharbor_timeline_events_dropped_total 7",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// TestJobTotalsExposition: the registry's cumulative totals — which survive
// ring eviction — render as the job counters.
func TestJobTotalsExposition(t *testing.T) {
	ring := trace.NewRegistry(2)
	for i := 0; i < 3; i++ {
		tr := trace.New(fmt.Sprintf("job%d", i), []trace.StageInfo{{Name: "d", Kind: "deref"}}, 1)
		tr.TaskEnd(0, tr.TaskBegin(0))
		var err error
		if i == 2 {
			err = errors.New("boom")
		}
		ring.Add(tr.Snapshot(err))
	}
	batched := trace.NewRegistry(4)
	tr := trace.New("j", []trace.StageInfo{{Name: "d", Kind: "deref"}}, 1)
	tr.AddBatch(0, 5)
	tr.AddBatchSplit(0)
	batched.Add(tr.Snapshot(nil))

	for r, wants := range map[*trace.Registry][]string{
		ring: {
			"lakeharbor_jobs_total 3",
			"lakeharbor_jobs_failed_total 1",
			"lakeharbor_tasks_total 3",
			"# TYPE lakeharbor_jobs_total counter",
		},
		batched: {
			"lakeharbor_batches_total 1",
			"lakeharbor_batched_pointers_total 5",
			"lakeharbor_batch_splits_total 1",
		},
	} {
		out := renderJobs(r)
		for _, want := range wants {
			if !strings.Contains(out, want) {
				t.Errorf("metrics missing %q:\n%s", want, out)
			}
		}
	}
}
