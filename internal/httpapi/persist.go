package httpapi

import (
	"fmt"
	"net/http"
	"time"

	"lakeharbor/internal/catalog"
	"lakeharbor/internal/lake"
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

// RecoveryInfo summarizes one boot-time recovery for /debug/metrics.
type RecoveryInfo struct {
	// Recovered reports that the server booted from a checkpoint rather
	// than loading fresh data.
	Recovered bool
	// SnapshotFiles is the number of files the snapshot restored.
	SnapshotFiles int
	// WALRecords is the number of records the WAL replay re-applied.
	WALRecords int
	// StructuresReady and StructuresEvicted count structures recovered into
	// each state without rebuilding.
	StructuresReady   int
	StructuresEvicted int
	// CatalogVersion is the catalog version the checkpoint carried.
	CatalogVersion uint64
	// Duration is the total restore + replay + structure-recovery time.
	Duration time.Duration
}

// AttachRecovery publishes boot-time recovery stats on /debug/metrics.
func (s *Server) AttachRecovery(info RecoveryInfo) { s.recovery = &info }

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
