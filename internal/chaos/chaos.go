// Package chaos compiles seeded, deterministic fault schedules and arms
// them against a dfs cluster — an in-process sim or the front end of a
// networked one alike.
//
// The design follows deterministic simulation testing (FoundationDB and its
// Record Layer): every run is driven by a single int64 seed, the seed fully
// determines the fault schedule — which partitions fail, how many key
// accesses each fault survives, which nodes get latency brownouts, spikes,
// or queue-depth squeezes — and a failure anywhere reproduces by re-running
// the same seed. The schedule's faults are all *healable*: transient
// partition faults carry a heal budget consumed per key, and latency events
// only slow accesses down, so a correct executor configured with enough
// retries must still produce exactly the right answer under any schedule.
// The differential oracle (internal/oracle) is the consumer: it runs the
// same job with and without a schedule armed and diffs the results.
//
// A Schedule arms through two public hooks only — dfs.Cluster.InjectFaults
// for faults and delays, which sees every data access on both planes before
// it touches a partition tree or a transport, and sim.Gate.Hold for queue
// squeezes — so production code paths are exercised unmodified.
package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"time"

	"lakeharbor/internal/dfs"
	"lakeharbor/internal/lake"
)

// ErrInjected is the root of every fault error a schedule injects. It is
// deliberately NOT permanent (lake.AsPermanent): injected faults model flaky
// disks and brief partitions, which the executor's retry path must heal.
var ErrInjected = errors.New("chaos: injected transient fault")

// Target describes the cluster surface a schedule is compiled against. The
// order of Files is part of the schedule's identity: compilation draws
// random numbers in Target iteration order, so the same seed against the
// same target always yields the same schedule.
type Target struct {
	// Nodes is the cluster size.
	Nodes int
	// Files lists the files (and their partition counts) eligible for
	// partition faults.
	Files []FileInfo
}

// FileInfo names one faultable file.
type FileInfo struct {
	Name       string
	Partitions int
}

// Profile tunes schedule density. The zero value selects DefaultProfile.
type Profile struct {
	// FaultProb is the per-(file, partition) probability of a transient
	// fault.
	FaultProb float64
	// MaxHeals caps one fault's heal budget (accesses that fail before the
	// fault heals). The oracle sizes Options.MaxRetries from the schedule's
	// TotalHeals, so the cap bounds how patient the executor must be.
	MaxHeals int
	// BrownoutProb is the per-node probability of a latency brownout
	// window (a small delay added to each of a long span of accesses, at
	// most a tenth of MaxSpike).
	BrownoutProb float64
	// SpikeProb is the per-node probability of a latency spike (a large
	// delay added to each of a few accesses).
	SpikeProb float64
	// MaxSpike caps a spike's added latency.
	MaxSpike time.Duration
	// SqueezeProb is the per-node probability of a queue-depth squeeze
	// (admission slots held for the whole armed window).
	SqueezeProb float64
}

// DefaultProfile returns the density used by the oracle and chaosbench:
// roughly one fault per few partitions and one latency event per few nodes,
// spiky enough to shuffle interleavings without making runs crawl.
func DefaultProfile() Profile {
	return Profile{
		FaultProb:    0.35,
		MaxHeals:     3,
		BrownoutProb: 0.4,
		SpikeProb:    0.4,
		MaxSpike:     500 * time.Microsecond,
		SqueezeProb:  0.3,
	}
}

// Fault is one transient partition fault: the partition's next Heals key
// accesses fail with ErrInjected, then the fault heals itself.
type Fault struct {
	File      string
	Partition int
	Heals     int
}

// Delay is one latency event on a node: accesses numbered [FromCall,
// ToCall] (1-based, counted per node) wait Add before they run. Windows
// that overlap add up. A long window with a small Add is a brownout; a
// short window with a large Add is a spike.
type Delay struct {
	Node     int
	FromCall int64
	ToCall   int64
	Add      time.Duration
}

// Squeeze holds Slots of a node's admission queue for the whole armed
// window, shrinking the concurrency its storage path can absorb.
type Squeeze struct {
	Node  int
	Slots int
}

// Schedule is a compiled, seed-determined set of chaos events.
type Schedule struct {
	Seed     int64
	Faults   []Fault
	Delays   []Delay
	Squeezes []Squeeze
}

// Compile derives the schedule for seed against the target. It is a pure
// function: same seed, same target, same profile → identical schedule.
func Compile(seed int64, tgt Target, prof Profile) *Schedule {
	if prof == (Profile{}) {
		prof = DefaultProfile()
	}
	if prof.MaxHeals <= 0 {
		prof.MaxHeals = DefaultProfile().MaxHeals
	}
	if prof.MaxSpike <= 0 {
		prof.MaxSpike = DefaultProfile().MaxSpike
	}
	rng := rand.New(rand.NewSource(seed))
	s := &Schedule{Seed: seed}
	for _, f := range tgt.Files {
		for p := 0; p < f.Partitions; p++ {
			if rng.Float64() < prof.FaultProb {
				s.Faults = append(s.Faults, Fault{
					File:      f.Name,
					Partition: p,
					Heals:     1 + rng.Intn(prof.MaxHeals),
				})
			}
		}
	}
	for n := 0; n < tgt.Nodes; n++ {
		if rng.Float64() < prof.BrownoutProb {
			from := 1 + rng.Int63n(50)
			s.Delays = append(s.Delays, Delay{
				Node:     n,
				FromCall: from,
				ToCall:   from + 10 + rng.Int63n(90),
				Add:      time.Duration(rng.Int63n(int64(prof.MaxSpike)/10+1)) + time.Microsecond,
			})
		}
		if rng.Float64() < prof.SpikeProb {
			from := 1 + rng.Int63n(100)
			s.Delays = append(s.Delays, Delay{
				Node:     n,
				FromCall: from,
				ToCall:   from + rng.Int63n(3),
				Add:      time.Duration(rng.Int63n(int64(prof.MaxSpike))) + time.Microsecond,
			})
		}
		if rng.Float64() < prof.SqueezeProb {
			s.Squeezes = append(s.Squeezes, Squeeze{Node: n, Slots: 1 + rng.Intn(8)})
		}
	}
	return s
}

// Events reports how many events the schedule carries.
func (s *Schedule) Events() int {
	return len(s.Faults) + len(s.Delays) + len(s.Squeezes)
}

// TotalHeals sums every fault's heal budget. An executor running with
// Options.MaxRetries >= TotalHeals is guaranteed to out-wait the schedule:
// even if one unlucky invocation absorbs every injected failure, it still
// has a retry left for the healed attempt.
func (s *Schedule) TotalHeals() int {
	total := 0
	for _, f := range s.Faults {
		total += f.Heals
	}
	return total
}

// String renders the schedule compactly for repro logs.
func (s *Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos(seed=%d", s.Seed)
	for _, f := range s.Faults {
		fmt.Fprintf(&b, " fault:%s/%d×%d", f.File, f.Partition, f.Heals)
	}
	for _, d := range s.Delays {
		fmt.Fprintf(&b, " delay:n%d@%d-%d+%v", d.Node, d.FromCall, d.ToCall, d.Add)
	}
	for _, q := range s.Squeezes {
		fmt.Fprintf(&b, " squeeze:n%d-%d", q.Node, q.Slots)
	}
	b.WriteString(")")
	return b.String()
}

// Armed is a schedule installed on a cluster; Disarm restores the cluster.
// Its fault hook's state — heal budgets, per-node access counters and the
// fired count — is shared by every access on the cluster.
type Armed struct {
	cluster  *dfs.Cluster
	heals    map[partition]*atomic.Int64
	delays   [][]Delay      // by node
	calls    []atomic.Int64 // accesses seen, by node
	fired    atomic.Int64
	releases []func()
	disarmed atomic.Bool
}

// partition names one faultable partition.
type partition struct {
	file string
	idx  int
}

// Arm installs the schedule on the cluster — sim or transport-backed: one
// fault hook carries the faults and delays, and squeezes hold admission
// slots on node gates (skipped on a free-cost cluster, which has no gates
// and no queue to squeeze). A cluster carries one armed schedule at a time.
// Arm fails if an event names a file, partition or node the cluster does
// not have.
func (s *Schedule) Arm(c *dfs.Cluster) (*Armed, error) {
	a := &Armed{
		cluster: c,
		heals:   make(map[partition]*atomic.Int64, len(s.Faults)),
		delays:  make([][]Delay, c.NumNodes()),
		calls:   make([]atomic.Int64, c.NumNodes()),
	}
	for _, f := range s.Faults {
		file, err := c.File(f.File)
		if err == nil && (f.Partition < 0 || f.Partition >= file.NumPartitions()) {
			err = fmt.Errorf("%w: %q/%d", lake.ErrNoSuchPartition, f.File, f.Partition)
		}
		if err != nil {
			return nil, fmt.Errorf("chaos: arm fault %s/%d: %w", f.File, f.Partition, err)
		}
		p := partition{f.File, f.Partition}
		if a.heals[p] == nil {
			a.heals[p] = new(atomic.Int64)
		}
		a.heals[p].Add(int64(f.Heals))
	}
	for _, d := range s.Delays {
		if d.Node < 0 || d.Node >= c.NumNodes() {
			return nil, fmt.Errorf("chaos: arm delay: no node %d", d.Node)
		}
		a.delays[d.Node] = append(a.delays[d.Node], d)
	}
	for _, q := range s.Squeezes {
		g := c.NodeGate(q.Node)
		if g == nil {
			continue
		}
		// Never hold the whole queue: a zero-slot gate would block every
		// I/O on the node forever — chaos must degrade service, not
		// deadlock it.
		slots := q.Slots
		if depth := c.Cost().QueueDepth; depth > 0 && slots > depth-1 {
			slots = depth - 1
		}
		if slots <= 0 {
			continue
		}
		_, release := g.Hold(slots)
		a.releases = append(a.releases, release)
	}
	c.InjectFaults(a.hook)
	return a, nil
}

// hook is the armed schedule's dfs.FaultHook. The access waits the sum of
// the delay windows its per-node number falls in, and fails with
// ErrInjected while its partition's heal budget lasts; a failed access
// consumes one unit per key it stands for, so batched and unbatched runs
// heal a fault after the same number of key accesses. A budget smaller
// than the key count is exhausted, not driven negative.
func (a *Armed) hook(acc dfs.Access) (wait time.Duration, err error) {
	if evs := a.delays[acc.Node]; len(evs) > 0 {
		call := a.calls[acc.Node].Add(1)
		for _, d := range evs {
			if call >= d.FromCall && call <= d.ToCall {
				wait += d.Add
			}
		}
	}
	budget := a.heals[partition{acc.File, acc.Partition}]
	if budget == nil {
		return wait, nil
	}
	for {
		left := budget.Load()
		if left <= 0 {
			return wait, nil
		}
		if budget.CompareAndSwap(left, max(left-int64(acc.Keys), 0)) {
			a.fired.Add(1)
			return wait, ErrInjected
		}
	}
}

// Fired reports how many accesses the schedule has failed so far.
func (a *Armed) Fired() int64 { return a.fired.Load() }

// Disarm removes every installed event: the fault hook is uninstalled —
// pending heal budgets and delay windows with it — and held admission slots
// are released. It is idempotent.
func (a *Armed) Disarm() {
	if !a.disarmed.CompareAndSwap(false, true) {
		return
	}
	a.cluster.InjectFaults(nil)
	for _, release := range a.releases {
		release()
	}
}
