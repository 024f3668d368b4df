package nodenet

import (
	"io"
	"sync/atomic"

	"lakeharbor/internal/obs"
	"lakeharbor/internal/trace"
)

// Stats aggregates client-side transport counters and latency distributions.
// One Stats is normally shared by every per-node Client of a cluster so
// /debug/metrics shows the whole data plane; all methods are safe for
// concurrent use.
type Stats struct {
	dials       atomic.Int64 // TCP connections opened
	connsClosed atomic.Int64 // TCP connections closed (failure, Close)
	inFlight    atomic.Int64 // RPC attempts sent (or dialing) and not yet let go

	rpcs      atomic.Int64 // completed RPC attempts (any status)
	rpcErrors atomic.Int64 // attempts that returned an error

	hedgeFires atomic.Int64 // hedge timers that launched a second attempt
	hedgeWins  atomic.Int64 // hedged (second) attempts that answered first
	hedgeDups  atomic.Int64 // duplicate responses suppressed after a winner

	lat trace.Histogram // RPC round-trip latency, nanoseconds
}

// NewStats returns an empty Stats.
func NewStats() *Stats { return &Stats{} }

// OpenConns is the live-connection gauge: dials minus closes. A drained
// client pool must bring it to zero — the oracle's leak assertion.
func (s *Stats) OpenConns() int64 {
	if s == nil {
		return 0
	}
	return s.dials.Load() - s.connsClosed.Load()
}

// InFlight is the attempts-in-flight gauge: primaries and hedges a caller is
// still waiting on.
func (s *Stats) InFlight() int64 {
	if s == nil {
		return 0
	}
	return s.inFlight.Load()
}

// HedgeFires returns how many hedged second attempts were launched.
func (s *Stats) HedgeFires() int64 {
	if s == nil {
		return 0
	}
	return s.hedgeFires.Load()
}

// HedgeWins returns how many hedged attempts beat the primary.
func (s *Stats) HedgeWins() int64 {
	if s == nil {
		return 0
	}
	return s.hedgeWins.Load()
}

// HedgeDups returns how many duplicate responses were suppressed (the
// losing attempt of a hedged pair completed after a winner was chosen).
func (s *Stats) HedgeDups() int64 {
	if s == nil {
		return 0
	}
	return s.hedgeDups.Load()
}

// RPCs returns completed RPC attempts.
func (s *Stats) RPCs() int64 {
	if s == nil {
		return 0
	}
	return s.rpcs.Load()
}

// nil-safe recording helpers (a Client may run without Stats in tests).

func (s *Stats) dialed() {
	if s != nil {
		s.dials.Add(1)
	}
}

func (s *Stats) connClosed() {
	if s != nil {
		s.connsClosed.Add(1)
	}
}

func (s *Stats) slot(delta int64) {
	if s != nil {
		s.inFlight.Add(delta)
	}
}

func (s *Stats) rpcDone(latencyNs int64, failed bool) {
	if s == nil {
		return
	}
	s.rpcs.Add(1)
	if failed {
		s.rpcErrors.Add(1)
	} else {
		s.lat.Record(latencyNs)
	}
}

// rpcDropped counts an attempt whose reply nobody was waiting for: the
// caller gave up, or its other attempt won. No latency is recorded — no
// caller experienced one.
func (s *Stats) rpcDropped(failed bool) {
	if s == nil {
		return
	}
	s.rpcs.Add(1)
	if failed {
		s.rpcErrors.Add(1)
	}
}

func (s *Stats) hedgeFired() {
	if s != nil {
		s.hedgeFires.Add(1)
	}
}

func (s *Stats) hedgeWon() {
	if s != nil {
		s.hedgeWins.Add(1)
	}
}

func (s *Stats) hedgeDup() {
	if s != nil {
		s.hedgeDups.Add(1)
	}
}

// WriteMetrics renders the transport gauges and counters in Prometheus text
// format, matching the /debug/metrics conventions of the rest of the server.
func (s *Stats) WriteMetrics(w io.Writer) {
	if s == nil {
		return
	}
	obs.Gauge(w, "lakeharbor_net_conns_open", "live TCP connections to lakenode servers", s.OpenConns())
	obs.Gauge(w, "lakeharbor_net_pool_inflight", "node RPC attempts in flight", s.InFlight())
	obs.Counter(w, "lakeharbor_net_conns_dialed_total", "TCP connections dialed", s.dials.Load())
	obs.Counter(w, "lakeharbor_net_rpcs_total", "node RPC attempts completed", s.rpcs.Load())
	obs.Counter(w, "lakeharbor_net_rpc_errors_total", "node RPC attempts that failed", s.rpcErrors.Load())
	obs.Counter(w, "lakeharbor_net_hedge_fires_total", "hedged second attempts launched", s.hedgeFires.Load())
	obs.Counter(w, "lakeharbor_net_hedge_wins_total", "hedged attempts that answered first", s.hedgeWins.Load())
	obs.Counter(w, "lakeharbor_net_hedge_dups_total", "duplicate hedge responses suppressed", s.hedgeDups.Load())
	s.lat.Snapshot().WriteSummary(w, "lakeharbor_net_rpc_latency_seconds", "node RPC round-trip latency", 1e-9)
}
