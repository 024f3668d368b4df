package nodenet

import (
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

var (
	netConnsOpen  = obs.NewGauge("lakeharbor_net_conns_open", "Live TCP connections to lakenode servers.")
	netInflight   = obs.NewGauge("lakeharbor_net_pool_inflight", "Node RPC attempts in flight.")
	netDialed     = obs.NewCounter("lakeharbor_net_conns_dialed_total", "TCP connections dialed.")
	netRPCs       = obs.NewCounter("lakeharbor_net_rpcs_total", "Node RPC attempts completed.")
	netRPCErrors  = obs.NewCounter("lakeharbor_net_rpc_errors_total", "Node RPC attempts that failed.")
	netHedgeFires = obs.NewCounter("lakeharbor_net_hedge_fires_total", "Hedged second attempts launched.")
	netHedgeWins  = obs.NewCounter("lakeharbor_net_hedge_wins_total", "Hedged attempts that answered first.")
	netHedgeDups  = obs.NewCounter("lakeharbor_net_hedge_dups_total", "Duplicate hedge responses suppressed.")
	netRPCLatency = obs.NewSummary("lakeharbor_net_rpc_latency_seconds", "Node RPC round-trip latency seen by the client.", 1e-9, []float64{0.5, 0.9, 0.99})
)

// Collect renders the transport gauges, counters and round-trip summary.
func (s *Stats) Collect(w *obs.Writer) {
	if s == nil {
		return
	}
	w.Sample(netConnsOpen, float64(s.OpenConns()))
	w.Sample(netInflight, float64(s.InFlight()))
	w.Sample(netDialed, float64(s.dials.Load()))
	w.Sample(netRPCs, float64(s.rpcs.Load()))
	w.Sample(netRPCErrors, float64(s.rpcErrors.Load()))
	w.Sample(netHedgeFires, float64(s.hedgeFires.Load()))
	w.Sample(netHedgeWins, float64(s.hedgeWins.Load()))
	w.Sample(netHedgeDups, float64(s.hedgeDups.Load()))
	w.Summary(netRPCLatency, s.lat.Snapshot())
}
