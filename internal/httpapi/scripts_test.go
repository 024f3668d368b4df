package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"lakeharbor/internal/dfs"
	"lakeharbor/internal/indexer"
	"lakeharbor/internal/keycodec"
	"lakeharbor/internal/lake"
	"lakeharbor/internal/script"
	"lakeharbor/internal/store"
)

// scriptSrc indexes "id|val" rows by val — the canonical post-hoc access
// method clients register over the wire.
const scriptSrc = `fn partkey(key, data) { return key }
fn keys(key, data) { emit(keyint(int(substr(data, find(data, "|") + 1, len(data))))) }`

// scriptsServer builds a cluster with one base file and a server with both
// a script registry and a lifecycle manager attached.
func scriptsServer(t *testing.T) (*httptest.Server, *script.Registry, *indexer.Manager, *dfs.Cluster) {
	t.Helper()
	ctx := context.Background()
	c := dfs.NewCluster(dfs.Config{Nodes: 2})
	f, err := c.CreateFile("orders", dfs.Btree, 4, lake.HashPartitioner{})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 80; i++ {
		k := keycodec.Int64(i)
		rec := lake.Record{Key: k, Data: []byte(fmt.Sprintf("%d|%d", i, i%9))}
		if err := dfs.AppendRouted(ctx, f, k, rec); err != nil {
			t.Fatal(err)
		}
	}
	reg := script.NewRegistry(script.Limits{})
	m := indexer.NewManager(ctx, c, indexer.ManagerOptions{})
	s := New(c)
	s.AttachScripts(reg)
	s.AttachStructures(m)
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	return srv, reg, m, c
}

func doJSON(t *testing.T, method, url string, body any, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil && err != io.EOF {
			t.Fatalf("%s %s: decode: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

// TestScriptEndpointsFullLifecycle drives the whole scripted access-method
// story over HTTP: put → list/get → structure from script → build → query
// through the built structure → evict → delete, with the script counters
// visible in /debug/metrics throughout.
func TestScriptEndpointsFullLifecycle(t *testing.T) {
	srv, _, m, c := scriptsServer(t)
	ctx := context.Background()

	// Validate-at-POST: broken source is rejected with the compile error.
	var errOut map[string]string
	if code := doJSON(t, "POST", srv.URL+"/v1/scripts", ScriptPutRequest{Name: "bad", Source: "fn {"}, &errOut); code != 400 {
		t.Fatalf("POST broken script: status %d", code)
	}
	if !strings.Contains(errOut["error"], "script:") {
		t.Fatalf("compile error not surfaced: %q", errOut["error"])
	}

	var info script.Info
	if code := doJSON(t, "POST", srv.URL+"/v1/scripts", ScriptPutRequest{Name: "validx", Source: scriptSrc}, &info); code != 201 {
		t.Fatalf("POST script: status %d", code)
	}
	if info.Version != 1 || len(info.Funcs) != 2 {
		t.Fatalf("info = %+v", info)
	}

	var list struct {
		Scripts []script.Info `json:"scripts"`
	}
	if code := doJSON(t, "GET", srv.URL+"/v1/scripts", nil, &list); code != 200 || len(list.Scripts) != 1 {
		t.Fatalf("GET /v1/scripts: code %d, list %+v", code, list)
	}
	var got map[string]any
	if code := doJSON(t, "GET", srv.URL+"/v1/scripts/validx", nil, &got); code != 200 {
		t.Fatalf("GET one script: status %d", code)
	}
	if got["source"] != scriptSrc {
		t.Fatalf("source round trip lost bytes: %q", got["source"])
	}

	// Structure from the script: binding validates, registers, builds.
	var created map[string]string
	code := doJSON(t, "POST", srv.URL+"/v1/structures", script.SpecBinding{
		Structure: "orders_val_idx", Base: "orders", Kind: "global", Partitions: 4,
		Script: "validx", PartKeyFn: "partkey", KeysFn: "keys",
	}, &created)
	if code != 202 {
		t.Fatalf("POST /v1/structures: status %d (%v)", code, created)
	}
	if err := m.Ensure(ctx, "orders_val_idx"); err != nil {
		t.Fatal(err)
	}

	// Query through the scripted structure: rows with val==3 are ids 3, 12,
	// 21, ... — 9 of the 80.
	idx, err := c.BtreeFile("orders_val_idx")
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for p := 0; p < idx.NumPartitions(); p++ {
		recs, err := idx.LookupRange(ctx, p, keycodec.Int64(3), keycodec.Int64(3))
		if err != nil {
			t.Fatal(err)
		}
		found += len(recs)
	}
	if found != 9 {
		t.Fatalf("scripted index answered %d entries for val=3, want 9", found)
	}

	// The build ran both extractors once per row, and GET shows what that
	// cost per function.
	var cost struct {
		Stats []script.FuncStats `json:"stats"`
	}
	if code := doJSON(t, "GET", srv.URL+"/v1/scripts/validx", nil, &cost); code != 200 {
		t.Fatalf("GET one script: status %d", code)
	}
	if len(cost.Stats) != 2 || cost.Stats[0].Name != "partkey" || cost.Stats[1].Name != "keys" {
		t.Fatalf("stats = %+v, want partkey then keys", cost.Stats)
	}
	for _, f := range cost.Stats {
		if f.Calls != 80 || f.Steps < f.Calls {
			t.Fatalf("%s: %d calls, %d steps after indexing 80 rows", f.Name, f.Calls, f.Steps)
		}
	}

	// A bad binding never registers anything.
	if code := doJSON(t, "POST", srv.URL+"/v1/structures", script.SpecBinding{
		Structure: "x", Base: "orders", Script: "validx", PartKeyFn: "partkey", KeysFn: "nope",
	}, nil); code != 400 {
		t.Fatalf("POST bad binding: status %d", code)
	}

	// Counters are exported under documented names.
	resp, err := http.Get(srv.URL + "/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"lakeharbor_script_compiles_total",
		"lakeharbor_script_compile_errors_total",
		"lakeharbor_script_invocations_total",
		"lakeharbor_script_steps_total",
		"lakeharbor_script_step_budget_trips_total",
		"lakeharbor_script_alloc_budget_trips_total",
		"lakeharbor_script_registered 1",
		"lakeharbor_script_bindings 1",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/debug/metrics lacks %q", want)
		}
	}

	// Evict, then delete the script; its binding goes with it.
	if code := postStatus(t, srv.URL+"/v1/structures/orders_val_idx/evict"); code != 200 {
		t.Fatalf("POST evict: status %d", code)
	}
	if code := doJSON(t, "DELETE", srv.URL+"/v1/scripts/validx", nil, nil); code != 200 {
		t.Fatalf("DELETE script: status %d", code)
	}
	if code := doJSON(t, "DELETE", srv.URL+"/v1/scripts/validx", nil, nil); code != 404 {
		t.Fatalf("second DELETE: status %d", code)
	}
	if code := doJSON(t, "GET", srv.URL+"/v1/scripts/validx", nil, nil); code != 404 {
		t.Fatalf("GET deleted script: status %d", code)
	}
}

// TestScriptedStructureSurvivesRestart replays the lakeserve -data restart
// path for a scripted structure: POST script + structure over HTTP, build,
// checkpoint (files + registry + scripts + bindings), then a cold boot —
// fresh cluster, fresh registry, fresh manager — recovers it from the
// snapshot alone. The script must recompile from persisted source, its
// binding must re-resolve, and the structure must come back ready with ZERO
// builds started on the recovered manager.
func TestScriptedStructureSurvivesRestart(t *testing.T) {
	srv, reg, m, c := scriptsServer(t)
	ctx := context.Background()

	if code := doJSON(t, "POST", srv.URL+"/v1/scripts", ScriptPutRequest{Name: "validx", Source: scriptSrc}, nil); code != 201 {
		t.Fatalf("POST script: status %d", code)
	}
	if code := doJSON(t, "POST", srv.URL+"/v1/structures", script.SpecBinding{
		Structure: "orders_val_idx", Base: "orders", Kind: "global", Partitions: 4,
		Script: "validx", PartKeyFn: "partkey", KeysFn: "keys",
	}, nil); code != 202 {
		t.Fatalf("POST structure: status %d", code)
	}
	if err := m.Ensure(ctx, "orders_val_idx"); err != nil {
		t.Fatal(err)
	}

	// Checkpoint exactly what lakeserve persists.
	snap := filepath.Join(t.TempDir(), "snap.lake")
	if err := store.Checkpoint(ctx, snap, c, m, reg); err != nil {
		t.Fatal(err)
	}

	// Cold boot: nothing survives but the snapshot.
	c2 := dfs.NewCluster(dfs.Config{Nodes: 2})
	reg2 := script.NewRegistry(script.Limits{})
	m2 := indexer.NewManager(ctx, c2, indexer.ManagerOptions{})
	rec, err := store.Recover(ctx, snap, "", c2, m2, reg2)
	if err != nil {
		t.Fatalf("recovered script or binding does not come back: %v", err)
	}
	if rec.Structures.Recovered != 1 || rec.Structures.Skipped != 0 {
		t.Fatalf("recover stats = %+v, want 1 recovered / 0 skipped", rec.Structures)
	}
	if st, err := m2.State("orders_val_idx"); err != nil || st != indexer.StateReady {
		t.Fatalf("recovered state = %v, %v; want ready", st, err)
	}
	if n := m2.Counters().BuildsStarted; n != 0 {
		t.Fatalf("recovery started %d builds; adoption must be build-free", n)
	}

	// The recovered structure answers queries — same 9 val==3 entries.
	idx, err := c2.BtreeFile("orders_val_idx")
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for p := 0; p < idx.NumPartitions(); p++ {
		recs, err := idx.LookupRange(ctx, p, keycodec.Int64(3), keycodec.Int64(3))
		if err != nil {
			t.Fatal(err)
		}
		found += len(recs)
	}
	if found != 9 {
		t.Fatalf("recovered index answered %d entries for val=3, want 9", found)
	}

	// And it is live, not a fossil: eviction + Ensure rebuilds through the
	// recompiled script.
	if err := m2.Evict("orders_val_idx"); err != nil {
		t.Fatal(err)
	}
	if err := m2.Ensure(ctx, "orders_val_idx"); err != nil {
		t.Fatalf("rebuild through recompiled script: %v", err)
	}
	if n := m2.Counters().BuildsStarted; n != 1 {
		t.Fatalf("rebuild-on-demand started %d builds, want 1", n)
	}
}

// TestStructureConflictRollsBackBinding: a POST /v1/structures the lifecycle
// manager refuses must leave the recorded bindings exactly as they were —
// the loser's binding must not replace the winner's (recovery would rebind
// the structure to semantics that never registered) or linger when there was
// no prior binding at all.
func TestStructureConflictRollsBackBinding(t *testing.T) {
	srv, reg, m, _ := scriptsServer(t)
	ctx := context.Background()

	if code := doJSON(t, "POST", srv.URL+"/v1/scripts", ScriptPutRequest{Name: "validx", Source: scriptSrc}, nil); code != 201 {
		t.Fatalf("POST script: status %d", code)
	}
	orig := script.SpecBinding{
		Structure: "orders_val_idx", Base: "orders", Kind: "global", Partitions: 4,
		Script: "validx", PartKeyFn: "partkey", KeysFn: "keys",
	}
	if code := doJSON(t, "POST", srv.URL+"/v1/structures", orig, nil); code != 202 {
		t.Fatalf("POST structure: status %d", code)
	}
	if err := m.Ensure(ctx, "orders_val_idx"); err != nil {
		t.Fatal(err)
	}

	// Same structure, different binding: re-registering a ready structure is
	// refused, and the recorded binding must stay the original.
	loser := orig
	loser.Partitions = 2
	if code := doJSON(t, "POST", srv.URL+"/v1/structures", loser, nil); code != 409 {
		t.Fatalf("conflicting POST: status %d, want 409", code)
	}
	if got, ok := reg.Binding("orders_val_idx"); !ok || got != orig {
		t.Fatalf("binding after conflict = %+v, %v; want the original %+v", got, ok, orig)
	}

	// A conflict on a structure that never had a binding (registered from a
	// compiled spec) must leave none behind.
	compiled := indexer.Spec{
		Name: "compiled_idx", Base: "orders",
		PartKey: func(r lake.Record) (lake.Key, error) { return r.Key, nil },
		Keys:    func(r lake.Record) ([]lake.Key, error) { return []lake.Key{r.Key}, nil },
	}
	if err := m.Register(compiled); err != nil {
		t.Fatal(err)
	}
	if err := m.Ensure(ctx, "compiled_idx"); err != nil {
		t.Fatal(err)
	}
	scripted := orig
	scripted.Structure = "compiled_idx"
	if code := doJSON(t, "POST", srv.URL+"/v1/structures", scripted, nil); code != 409 {
		t.Fatalf("POST over compiled structure: status %d, want 409", code)
	}
	if b, ok := reg.Binding("compiled_idx"); ok {
		t.Fatalf("conflicting POST left a stray binding behind: %+v", b)
	}
}

// TestScriptEndpointsDetachedAnswer404 pins the not-attached contract.
func TestScriptEndpointsDetachedAnswer404(t *testing.T) {
	s := New(dfs.NewCluster(dfs.Config{Nodes: 1}))
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	if code := doJSON(t, "GET", srv.URL+"/v1/scripts", nil, nil); code != 404 {
		t.Fatalf("detached GET /v1/scripts: status %d", code)
	}
	if code := doJSON(t, "POST", srv.URL+"/v1/structures", script.SpecBinding{}, nil); code != 404 {
		t.Fatalf("detached POST /v1/structures: status %d", code)
	}
}
