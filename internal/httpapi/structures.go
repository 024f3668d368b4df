package httpapi

import (
	"errors"
	"net/http"

	"lakeharbor/internal/indexer"
)

// This file surfaces the structure lifecycle manager over HTTP:
//
//	GET  /v1/structures               every managed structure's state, size,
//	                                  build progress, and lifecycle counters
//	POST /v1/structures/{name}/build  start (or join) a background build
//	POST /v1/structures/{name}/evict  drop a ready structure; next demand rebuilds
//
// The endpoints answer 404 until a Manager is attached with
// AttachStructures; lifecycle counters also join /debug/metrics then.

// AttachStructures connects a lifecycle manager to the server, enabling the
// /v1/structures endpoints and the lifecycle counters in /debug/metrics.
func (s *Server) AttachStructures(m *indexer.Manager) { s.structures = m }

// StructuresJSON is the wire form of GET /v1/structures.
type StructuresJSON struct {
	// Structures lists every managed structure, sorted by name.
	Structures []indexer.StructureStatus `json:"structures"`
	// ResidentBytes is the total modeled size of ready structures.
	ResidentBytes int64 `json:"resident_bytes"`
	// Counters are the manager's lifetime lifecycle counters.
	Counters indexer.LifecycleCounters `json:"counters"`
}

// manager resolves the attached lifecycle manager, writing the error
// response itself when it returns nil.
func (s *Server) manager(w http.ResponseWriter) *indexer.Manager {
	if s.structures == nil {
		writeError(w, http.StatusNotFound, errors.New("httpapi: no structure lifecycle manager attached"))
		return nil
	}
	return s.structures
}

func (s *Server) handleStructures(w http.ResponseWriter, r *http.Request) {
	m := s.manager(w)
	if m == nil {
		return
	}
	writeJSON(w, http.StatusOK, StructuresJSON{
		Structures:    m.Status(),
		ResidentBytes: m.ResidentBytes(),
		Counters:      m.Counters(),
	})
}

func (s *Server) handleStructureBuild(w http.ResponseWriter, r *http.Request) {
	m := s.manager(w)
	if m == nil {
		return
	}
	name := r.PathValue("name")
	state, err := m.Build(name)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"name": name, "state": state.String()})
}

func (s *Server) handleStructureEvict(w http.ResponseWriter, r *http.Request) {
	m := s.manager(w)
	if m == nil {
		return
	}
	name := r.PathValue("name")
	if err := m.Evict(name); err != nil {
		code := http.StatusConflict
		if st, stErr := m.State(name); stErr != nil || st == indexer.StateAbsent {
			code = http.StatusNotFound
		}
		writeError(w, code, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"name": name, "state": indexer.StateEvicted.String()})
}
