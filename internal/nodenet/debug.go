package nodenet

import (
	"encoding/json"
	"net/http"
	"time"

	"lakeharbor/internal/obs"
)

// DebugHandler is the lakenode introspection sidecar: a plain HTTP handler
// (served on its own -debug listener, never on the RPC port) exposing
//
//	GET /healthz       liveness — 200 while the process runs
//	GET /readyz        readiness — 200 while serving, 503 once draining
//	GET /debug/metrics Prometheus text: build info + lakeharbor_node_* series
//	GET /debug/state   the NodeState JSON the lakeserve federator scrapes
//	GET /debug/rpcs    recent RPC spans with their wire trace attribution
func DebugHandler(srv *Server, o *ServerObs) http.Handler {
	start := time.Now()
	if o != nil {
		start = o.start
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n")) //nolint:errcheck
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if srv != nil && srv.Draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte("ok\n")) //nolint:errcheck
	})
	mux.HandleFunc("GET /debug/metrics", func(w http.ResponseWriter, r *http.Request) {
		obs.Serve(w, "lakenode", start, o.Collect)
	})
	mux.HandleFunc("GET /debug/state", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(o.State(srv)) //nolint:errcheck
	})
	mux.HandleFunc("GET /debug/rpcs", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		spans := o.Spans()
		if spans == nil {
			spans = []RPCSpan{}
		}
		json.NewEncoder(w).Encode(spans) //nolint:errcheck
	})
	return mux
}
