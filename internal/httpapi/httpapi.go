// Package httpapi exposes a LakeHarbor cluster over HTTP for operators and
// lightweight clients: catalog listing, access metrics, point lookups,
// range reads, and raw-record ingestion. It is the kind of admin surface an
// open-source release of the system would ship; query execution proper
// stays in the engines.
//
// Keys over the wire use a typed prefix syntax, e.g. "int:42",
// "float:19.5", "str:tokyo"; repeating the key parameter builds a composite
// (tuple) key. Record payloads travel as UTF-8 text when printable and
// base64 otherwise.
package httpapi

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"

	"lakeharbor/internal/catalog"
	"lakeharbor/internal/dfs"
	"lakeharbor/internal/indexer"
	"lakeharbor/internal/keycodec"
	"lakeharbor/internal/lake"
	"lakeharbor/internal/sched"
	"lakeharbor/internal/script"
	"lakeharbor/internal/store"
	"lakeharbor/internal/trace"
)

// Server serves the API over one cluster.
type Server struct {
	cluster    *dfs.Cluster
	mux        *http.ServeMux
	traces     *trace.Registry
	structures *indexer.Manager // nil until AttachStructures
	scripts    *script.Registry // nil until AttachScripts
	catalog    *catalog.Service // nil until AttachCatalog
	recovery   *store.Recovery  // nil until AttachRecovery
	ingestHook IngestHook       // nil unless SetIngestHook
	sched      *sched.Scheduler // nil until AttachScheduler
	collectors []Collector      // attached /debug/metrics collectors
	start      time.Time        // process start, for the uptime gauge
}

// New builds a Server for the cluster.
func New(cluster *dfs.Cluster) *Server {
	s := &Server{
		cluster: cluster,
		mux:     http.NewServeMux(),
		traces:  trace.NewRegistry(0),
		start:   time.Now(),
	}
	s.mux.HandleFunc("GET /v1/catalog", s.handleCatalog)
	s.mux.HandleFunc("GET /v1/catalog/version", s.handleCatalogVersion)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/files/{name}", s.handleFile)
	s.mux.HandleFunc("GET /v1/lookup", s.handleLookup)
	s.mux.HandleFunc("GET /v1/range", s.handleRange)
	s.mux.HandleFunc("POST /v1/ingest", s.handleIngest)
	s.mux.HandleFunc("GET /v1/jobs/range", s.handleJobRange)
	s.mux.HandleFunc("GET /v1/structures", s.handleStructures)
	s.mux.HandleFunc("POST /v1/structures", s.handleStructureCreate)
	s.mux.HandleFunc("POST /v1/structures/{name}/build", s.handleStructureBuild)
	s.mux.HandleFunc("POST /v1/structures/{name}/evict", s.handleStructureEvict)
	s.mux.HandleFunc("POST /v1/scripts", s.handleScriptPut)
	s.mux.HandleFunc("GET /v1/scripts", s.handleScriptList)
	s.mux.HandleFunc("GET /v1/scripts/{name}", s.handleScriptGet)
	s.mux.HandleFunc("DELETE /v1/scripts/{name}", s.handleScriptDelete)
	s.mux.HandleFunc("GET /debug/jobs", s.handleDebugJobs)
	s.mux.HandleFunc("GET /debug/jobs/{id}", s.handleDebugJob)
	s.mux.HandleFunc("GET /debug/jobs/{id}/timeline", s.handleDebugJobTimeline)
	s.mux.HandleFunc("GET /debug/jobs/{id}/critpath", s.handleDebugJobCritPath)
	s.mux.HandleFunc("GET /debug/metrics", s.handleDebugMetrics)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// ParseKey converts one typed key spec ("int:42", "float:1.5", "str:abc")
// to its order-preserving encoding.
func ParseKey(spec string) (lake.Key, error) {
	typ, val, ok := strings.Cut(spec, ":")
	if !ok {
		return "", fmt.Errorf("httpapi: key %q needs a type prefix (int:, float:, str:)", spec)
	}
	switch typ {
	case "int":
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return "", fmt.Errorf("httpapi: bad int key %q: %w", val, err)
		}
		return keycodec.Int64(n), nil
	case "float":
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return "", fmt.Errorf("httpapi: bad float key %q: %w", val, err)
		}
		return keycodec.Float64(f), nil
	case "str":
		return keycodec.String(val), nil
	default:
		return "", fmt.Errorf("httpapi: unknown key type %q", typ)
	}
}

// ParseKeys builds a (possibly composite) key from one or more specs.
func ParseKeys(specs []string) (lake.Key, error) {
	if len(specs) == 0 {
		return "", errors.New("httpapi: missing key")
	}
	parts := make([]lake.Key, len(specs))
	for i, s := range specs {
		k, err := ParseKey(s)
		if err != nil {
			return "", err
		}
		parts[i] = k
	}
	return keycodec.Tuple(parts...), nil
}

// RecordJSON is the wire form of a record.
type RecordJSON struct {
	// KeyHex is the raw encoded key, hex-encoded.
	KeyHex string `json:"keyHex"`
	// Text carries the payload when it is valid UTF-8.
	Text string `json:"text,omitempty"`
	// Base64 carries the payload otherwise.
	Base64 string `json:"base64,omitempty"`
}

func toRecordJSON(r lake.Record) RecordJSON {
	out := RecordJSON{KeyHex: fmt.Sprintf("%x", r.Key)}
	if utf8.Valid(r.Data) {
		out.Text = string(r.Data)
	} else {
		out.Base64 = base64.StdEncoding.EncodeToString(r.Data)
	}
	return out
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// FileInfo describes one catalog entry.
type FileInfo struct {
	Name        string `json:"name"`
	Partitions  int    `json:"partitions"`
	Partitioner string `json:"partitioner"`
	Records     int    `json:"records"`
}

func (s *Server) handleCatalog(w http.ResponseWriter, r *http.Request) {
	names := s.cluster.FileNames()
	sort.Strings(names)
	out := make([]FileInfo, 0, len(names))
	for _, name := range names {
		f, err := s.cluster.File(name)
		if err != nil {
			continue // dropped concurrently
		}
		n, _ := s.cluster.Len(name)
		out = append(out, FileInfo{
			Name:        name,
			Partitions:  f.NumPartitions(),
			Partitioner: f.Partitioner().Name(),
			Records:     n,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.cluster.TotalMetrics())
}

func (s *Server) handleFile(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	f, err := s.cluster.File(name)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	type partInfo struct {
		Partition int `json:"partition"`
		Node      int `json:"node"`
		Records   int `json:"records"`
	}
	var parts []partInfo
	for p := 0; p < f.NumPartitions(); p++ {
		n := 0
		if err := f.Scan(r.Context(), p, func(lake.Record) error { n++; return nil }); err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		parts = append(parts, partInfo{Partition: p, Node: s.cluster.OwnerNode(p), Records: n})
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"name":        name,
		"partitioner": f.Partitioner().Name(),
		"partitions":  parts,
	})
}

func (s *Server) handleLookup(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	name := q.Get("file")
	if name == "" {
		writeError(w, http.StatusBadRequest, errors.New("httpapi: missing file parameter"))
		return
	}
	key, err := ParseKeys(q["key"])
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	partKey := key
	if pk := q["partKey"]; len(pk) > 0 {
		partKey, err = ParseKeys(pk)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	}
	f, err := s.cluster.File(name)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	p := f.Partitioner().Partition(partKey, f.NumPartitions())
	recs, err := f.Lookup(r.Context(), p, key)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	out := make([]RecordJSON, len(recs))
	for i, rec := range recs {
		out[i] = toRecordJSON(rec)
	}
	writeJSON(w, http.StatusOK, out)
}

// maxRangeLimit caps range responses.
const maxRangeLimit = 10000

func (s *Server) handleRange(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	name := q.Get("file")
	if name == "" {
		writeError(w, http.StatusBadRequest, errors.New("httpapi: missing file parameter"))
		return
	}
	lo, err := ParseKeys(q["lo"])
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("lo: %w", err))
		return
	}
	hi, err := ParseKeys(q["hi"])
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("hi: %w", err))
		return
	}
	limit := 100
	if l := q.Get("limit"); l != "" {
		limit, err = strconv.Atoi(l)
		if err != nil || limit <= 0 || limit > maxRangeLimit {
			writeError(w, http.StatusBadRequest, fmt.Errorf("httpapi: bad limit %q", l))
			return
		}
	}
	bf, err := s.cluster.BtreeFile(name)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	var out []RecordJSON
	for p := 0; p < bf.NumPartitions() && len(out) < limit; p++ {
		recs, err := bf.LookupRange(r.Context(), p, lo, hi)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		for _, rec := range recs {
			if len(out) >= limit {
				break
			}
			out = append(out, toRecordJSON(rec))
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// IngestRequest is the wire form of one ingest.
type IngestRequest struct {
	File    string   `json:"file"`
	Key     []string `json:"key"`               // typed key specs
	PartKey []string `json:"partKey,omitempty"` // defaults to Key
	Text    string   `json:"text,omitempty"`
	Base64  string   `json:"base64,omitempty"`
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	var req IngestRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("httpapi: bad body: %w", err))
		return
	}
	key, err := ParseKeys(req.Key)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	partKey := key
	if len(req.PartKey) > 0 {
		partKey, err = ParseKeys(req.PartKey)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	}
	var data []byte
	switch {
	case req.Base64 != "":
		data, err = base64.StdEncoding.DecodeString(req.Base64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("httpapi: bad base64: %w", err))
			return
		}
	default:
		data = []byte(req.Text)
	}
	f, err := s.cluster.File(req.File)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	rec := lake.Record{Key: key, Data: data}
	if s.ingestHook != nil {
		// Write-ahead: the record must be durable in the log before it is
		// visible in the lake.
		if err := s.ingestHook(req.File, partKey, rec); err != nil {
			writeError(w, http.StatusInternalServerError, fmt.Errorf("httpapi: wal: %w", err))
			return
		}
	}
	if err := dfs.AppendRouted(r.Context(), f, partKey, rec); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"status": "ok"})
}
