package httpapi

import (
	"fmt"
	"net/http"

	"lakeharbor/internal/catalog"
	"lakeharbor/internal/lake"
	"lakeharbor/internal/store"
)

// IngestHook is called for every record accepted by POST /v1/ingest, before
// it reaches the cluster. The durable serving layer points it at the WAL so
// ingests are logged write-ahead; a hook error fails the ingest.
type IngestHook func(file string, partKey lake.Key, rec lake.Record) error

// SetIngestHook installs the ingest hook. Call before serving traffic.
func (s *Server) SetIngestHook(fn IngestHook) { s.ingestHook = fn }

// AttachCatalog exposes the versioned catalog service: GET
// /v1/catalog/version serves the current version and file count, and
// /debug/metrics gains a lakeharbor_catalog_version gauge.
func (s *Server) AttachCatalog(svc *catalog.Service) { s.catalog = svc }

// AttachRecovery publishes a boot-time recovery's outcome on
// /debug/metrics; nil publishes nothing.
func (s *Server) AttachRecovery(rec *store.Recovery) { s.recovery = rec }

func (s *Server) handleCatalogVersion(w http.ResponseWriter, r *http.Request) {
	if s.catalog == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("httpapi: no versioned catalog attached"))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"version": s.catalog.Version(),
		"files":   s.catalog.Len(),
	})
}
