package core

import "sync"

// Failpoints deliberately break the executor at named internal sites. They
// exist for exactly one purpose: the differential oracle (internal/oracle)
// proves it can catch executor bugs by arming a failpoint, running a
// scenario, and requiring a divergence report. Production code never arms
// them; the zero state is "all off" and checking an unarmed failpoint is one
// lookup in an empty sync.Map.
//
// Known failpoints:
//
//   - FailpointDropTailFlush: the task-scoped pointer batcher skips its
//     end-of-task flush, silently dropping every pointer still buffered
//     below MaxBatch — the exact bug class batching introduced (a stranded
//     tail) and the oracle must detect as missing rows.
//   - FailpointEarlyTraceRelease: Execute releases the job's trace before
//     its dispatcher has finished, the bug class lending the trace
//     introduced; in a test binary the next use of the trace panics.
//   - FailpointCombineKeepsScratch: a filtered combine keeps a record whose
//     bytes the filter saw as scratch: a test binary (the only place it is
//     checked) scribbles the joined record in the arena's uncommitted room
//     as it does a dropped one, then cuts it anyway, so the record reads
//     poison. Once cut, no later record or task writes those bytes, so the
//     planted bug is no race.
const (
	FailpointDropTailFlush       = "drop-tail-flush"
	FailpointEarlyTraceRelease   = "early-trace-release"
	FailpointCombineKeepsScratch = "combine-keeps-scratch"
)

// failpoints holds the armed failpoints' names.
var failpoints sync.Map

// SetFailpoint arms (on=true) or clears a named failpoint. Tests that arm a
// failpoint must clear it before finishing; t.Cleanup is the natural place.
func SetFailpoint(name string, on bool) {
	if on {
		failpoints.Store(name, true)
	} else {
		failpoints.Delete(name)
	}
}

// failpoint reports whether the named failpoint is armed.
func failpoint(name string) bool {
	_, on := failpoints.Load(name)
	return on
}
