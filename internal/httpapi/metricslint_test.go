package httpapi

// Metrics lint over a fully attached deployment — lakeserve with scheduler,
// structures, scripts, catalog, recovery, transport stats, and federation
// over two lakenodes attached, plus one lakenode's debug sidecar.
// TestExpositionWellFormed holds both scrapes to the text format's grouping
// rules; TestMetricsReference holds README's metrics reference to the
// declarations, and the declarations to what the deployment emits.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"lakeharbor/internal/catalog"
	"lakeharbor/internal/dfs"
	"lakeharbor/internal/fed"
	"lakeharbor/internal/indexer"
	"lakeharbor/internal/keycodec"
	"lakeharbor/internal/lake"
	"lakeharbor/internal/nodenet"
	"lakeharbor/internal/obs"
	"lakeharbor/internal/sched"
	"lakeharbor/internal/script"
	"lakeharbor/internal/store"
)

// startSidecar runs one lakenode with traffic across every op, behind its
// debug sidecar, and returns the sidecar's URL. The client records into
// netStats.
func startSidecar(t *testing.T, netStats *nodenet.Stats) string {
	t.Helper()
	ctx := context.Background()
	nsrv := nodenet.NewServer(dfs.Local(dfs.NewCluster(dfs.Config{Nodes: 1})), func(string, ...any) {})
	nobs := nodenet.NewServerObs()
	nsrv.Observe(nobs)
	addr, err := nsrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nsrv.Close() })
	nc := nodenet.Dial(addr.String(), nodenet.Options{}, netStats)
	t.Cleanup(func() { nc.Close() })
	if err := nc.CreateFile(ctx, "nf", dfs.Btree, 1, lake.HashPartitioner{}); err != nil {
		t.Fatal(err)
	}
	if err := nc.Append(ctx, "nf", 0, []lake.Record{{Key: "k", Data: []byte("v")}}); err != nil {
		t.Fatal(err)
	}
	if _, err := nc.Lookup(ctx, "nf", 0, "k"); err != nil {
		t.Fatal(err)
	}
	if _, err := nc.LookupRange(ctx, "nf", 0, "a", "z"); err != nil {
		t.Fatal(err)
	}
	if err := nc.Scan(ctx, "nf", 0, func(lake.Record) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if _, _, err := nc.Stat(ctx, "nf", 0); err != nil {
		t.Fatal(err)
	}
	if err := nc.DropFile(ctx, "nf"); err != nil {
		t.Fatal(err)
	}
	dbg := httptest.NewServer(nodenet.DebugHandler(nsrv, nobs))
	t.Cleanup(dbg.Close)
	return dbg.URL
}

// scrapeDeployment starts the fully attached deployment, runs one tenant
// job, and returns the lakeserve and first-sidecar /debug/metrics bodies.
func scrapeDeployment(t *testing.T) (serve, sidecar string) {
	t.Helper()
	ctx := context.Background()
	netStats := nodenet.NewStats()
	nodes := []string{startSidecar(t, netStats), startSidecar(t, netStats)}

	cluster := dfs.NewCluster(dfs.Config{Nodes: 2})
	f, err := cluster.CreateFile("events", dfs.Btree, 4, lake.HashPartitioner{})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 50; i++ {
		k := keycodec.Int64(i)
		if err := dfs.AppendRouted(ctx, f, k, lake.Record{Key: k, Data: []byte(fmt.Sprintf("e%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	api := New(cluster)
	scheduler, err := sched.New(sched.Options{}, sched.TenantConfig{Name: "etl", Weight: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(scheduler.Close)
	api.AttachScheduler(scheduler)
	api.AttachStructures(indexer.NewManager(ctx, cluster, indexer.ManagerOptions{}))
	wal, err := store.OpenWAL(filepath.Join(t.TempDir(), "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	api.AttachCatalog(catalog.Attach(cluster, wal))
	api.AttachRecovery(&store.Recovery{})
	reg := script.NewRegistry(script.Limits{})
	if _, err := reg.Put("probe", `fn keep(key, data) { return true }`); err != nil {
		t.Fatal(err)
	}
	api.AttachScripts(reg)
	api.AttachCollector(netStats)
	federator := fed.New(nodes, fed.Options{})
	if err := federator.ScrapeOnce(ctx); err != nil {
		t.Fatal(err)
	}
	api.AttachCollector(federator)
	srv := httptest.NewServer(api)
	t.Cleanup(srv.Close)

	req, err := http.NewRequest("GET", srv.URL+"/v1/jobs/range?file=events&lo=int:0&hi=int:49&limit=5", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(TenantHeader, "etl")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("tenant job status %d", resp.StatusCode)
	}
	return scrape(t, srv.URL), scrape(t, nodes[0])
}

func scrape(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// checkExposition walks one scrape and returns the TYPE of every family it
// describes, plus each violation of the grouping rules: one HELP and one
// TYPE per family, both before its first sample; a family's samples in one
// contiguous group; no header without samples; no repeated series.
func checkExposition(body string) (types map[string]string, problems []string) {
	types = map[string]string{}
	help := map[string]bool{}
	sampled := map[string]bool{}
	closed := map[string]bool{}
	seen := map[string]bool{}
	group := ""
	for n, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		bad := func(format string, args ...any) {
			problems = append(problems, fmt.Sprintf("line %d %q: ", n+1, line)+fmt.Sprintf(format, args...))
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, _ := strings.Cut(rest, " ")
			if help[name] || sampled[name] {
				bad("repeated HELP, or HELP after samples")
			}
			help[name] = true
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(rest, " ")
			if types[name] != "" || sampled[name] {
				bad("repeated TYPE, or TYPE after samples")
			}
			types[name] = typ
			continue
		}
		id := line
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			id = line[:i]
		}
		family, _, _ := strings.Cut(id, "{")
		for _, suffix := range []string{"_sum", "_count"} {
			if base, ok := strings.CutSuffix(family, suffix); ok && types[base] == "summary" {
				family = base
			}
		}
		if !help[family] || types[family] == "" {
			bad("sample before its family's HELP and TYPE")
		}
		if family != group {
			if closed[family] {
				bad("%s's samples are split into more than one group", family)
			}
			closed[group] = true
			group = family
		}
		if seen[id] {
			bad("series repeats")
		}
		seen[id] = true
		sampled[family] = true
	}
	for name := range types {
		if !sampled[name] || !help[name] {
			problems = append(problems, fmt.Sprintf("%s: header without samples, or TYPE without HELP", name))
		}
	}
	return types, problems
}

func declaredTypes() map[string]string {
	out := map[string]string{}
	for _, f := range obs.Families() {
		out[f.Name] = f.Type
	}
	return out
}

func TestExpositionWellFormed(t *testing.T) {
	serve, sidecar := scrapeDeployment(t)
	declared := declaredTypes()
	for endpoint, body := range map[string]string{"lakeserve": serve, "lakenode sidecar": sidecar} {
		types, problems := checkExposition(body)
		for name, typ := range types {
			if declared[name] != typ {
				problems = append(problems, fmt.Sprintf("%s: TYPE %s, declared %q", name, typ, declared[name]))
			}
		}
		sort.Strings(problems)
		for _, p := range problems {
			t.Errorf("%s: %s", endpoint, p)
		}
	}
}

const (
	referenceBegin = "<!-- metrics-reference:begin (generated from obs.Families; TestMetricsReference) -->\n"
	referenceEnd   = "<!-- metrics-reference:end -->"
)

// metricsReference renders README's metrics table from the declarations.
func metricsReference(fams []obs.Family) string {
	var b strings.Builder
	b.WriteString("| Family | Type | Labels | Help |\n|---|---|---|---|\n")
	for _, f := range fams {
		var labels []string
		for _, l := range f.Labels {
			labels = append(labels, "`"+l+"`")
		}
		if f.Type == "summary" {
			labels = append(labels, "`quantile`")
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s |\n", f.Name, f.Type, strings.Join(labels, ", "), f.Help)
	}
	return b.String()
}

// TestMetricsReference: README's metrics reference is exactly the table the
// declarations generate — no undocumented family, no stale row — and a
// fully attached deployment emits every declared family, so no declaration
// is dead. (Nothing undeclared can be emitted: the writer renders only
// declared families.)
func TestMetricsReference(t *testing.T) {
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatalf("read README.md: %v", err)
	}
	_, rest, ok := strings.Cut(string(readme), referenceBegin)
	got, _, ok2 := strings.Cut(rest, referenceEnd)
	if !ok || !ok2 {
		t.Fatalf("README.md lacks the metrics reference markers %q … %q", referenceBegin, referenceEnd)
	}
	if want := metricsReference(obs.Families()); got != want {
		t.Errorf("README.md's metrics reference differs from the declarations; the block between the markers should read:\n%s", want)
	}

	serve, sidecar := scrapeDeployment(t)
	emitted := map[string]bool{}
	for _, body := range []string{serve, sidecar} {
		types, _ := checkExposition(body)
		for name := range types {
			emitted[name] = true
		}
	}
	for name := range declaredTypes() {
		if !emitted[name] {
			t.Errorf("%s is declared but the deployment never emits it", name)
		}
	}
}
