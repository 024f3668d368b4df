package indexer

import "sort"

// PersistEntry is the durable form of one managed structure's registry
// entry: what a checkpoint must carry so a fresh Manager can re-install the
// structure's residency state on boot without rebuilding it. Specs hold
// extractor functions and cannot be serialized; recovery therefore matches
// entries by name against specs the boot path re-registers from code.
type PersistEntry struct {
	Name string
	Base string
	Kind Kind
	// State is StateReady or StateEvicted — the only states worth
	// persisting. A build in flight at checkpoint time is simply absent in
	// the recovered manager and rebuilds on demand.
	State State
	// SizeBytes is the modeled resident size at checkpoint time (0 when
	// evicted).
	SizeBytes int64
	// RebuildCost is the advisor's modeled cost of rebuilding from a raw
	// scan, carried so recovery surfaces can report what the checkpoint
	// saved.
	RebuildCost float64
	// Builds is the structure's completed-build count.
	Builds int64
}

// PersistEntries snapshots the checkpointable registry entries, sorted by
// name. Structures mid-build are skipped: their partial contents are not
// safe to adopt.
func (m *Manager) PersistEntries() []PersistEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]PersistEntry, 0, len(m.entries))
	for name, e := range m.entries {
		if e.state != StateReady && e.state != StateEvicted {
			continue
		}
		pe := PersistEntry{
			Name:   name,
			Base:   e.spec.Base,
			Kind:   e.spec.Kind,
			State:  e.state,
			Builds: e.builds,
		}
		if e.state == StateReady {
			pe.SizeBytes = m.sizeLocked(e)
		}
		if m.opts.RebuildCost != nil {
			if c, err := m.opts.RebuildCost(e.spec); err == nil {
				pe.RebuildCost = c
			}
		}
		out = append(out, pe)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// RecoverStats summarizes one Recover pass.
type RecoverStats struct {
	// Recovered counts structures re-installed directly into ready —
	// restarts these would otherwise pay a full rebuild for.
	Recovered int
	// Evicted counts structures recovered into the evicted state: either
	// checkpointed that way, missing their restored bytes, or pushed out by
	// the budget during recovery.
	Evicted int
	// Skipped counts entries with no matching registered spec.
	Skipped int
	// RebuildCostSaved sums the modeled rebuild cost of the Recovered set.
	RebuildCostSaved float64
}

// Recover re-populates the residency map from checkpointed entries: ready
// entries whose restored file is present become ready without a rebuild
// (entry order defines recovered LRU order, coldest first) and are watched
// from then on, so every later base append reaches them; evicted entries —
// and ready entries whose bytes did not survive — become evicted, to
// rebuild on demand. Entries naming unregistered specs are skipped. After
// adoption the structure budget is enforced, so an over-budget checkpoint
// recovers into ready-plus-evicted rather than over-committing.
//
// store.Recover calls it in the one boot order: after restoring the
// snapshot and registering the boot specs, before replaying the WAL. It
// does not compose with builds already in flight.
func (m *Manager) Recover(entries []PersistEntry) RecoverStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	var st RecoverStats
	recovered := make(map[string]bool, len(entries))
	for _, pe := range entries {
		e, ok := m.entries[pe.Name]
		if !ok {
			st.Skipped++
			continue
		}
		if e.state != StateAbsent {
			continue // already built/building this boot; leave it alone
		}
		e.builds = pe.Builds
		if pe.State == StateReady {
			sz, err := m.cluster.FileSizeBytes(pe.Name)
			if err == nil && (sz > 0 || pe.SizeBytes == 0) {
				e.state = StateReady
				e.size = sz
				m.maint.Watch(e.spec) // validated at Register
				m.touchLocked(e)
				recovered[pe.Name] = true
				st.Recovered++
				st.RebuildCostSaved += pe.RebuildCost
				continue
			}
			// The registry says ready but the bytes are not there. Drop the
			// husk and fall through to evicted so the next demand rebuilds.
			m.cluster.DropFile(pe.Name)
		}
		e.state = StateEvicted
		st.Evicted++
	}
	// A snapshot taken mid-build can carry a partial structure file with no
	// ready entry; clear such files so the next build starts clean.
	for name, e := range m.entries {
		if e.state == StateAbsent && !recovered[name] {
			if _, err := m.cluster.File(name); err == nil {
				m.cluster.DropFile(name)
			}
		}
	}
	if m.opts.StructureBudget > 0 {
		for m.residentLocked() > m.opts.StructureBudget {
			v := m.pickVictimLocked(nil)
			if v == nil {
				break
			}
			m.evictLocked(v)
			st.Recovered--
			st.Evicted++
		}
	}
	return st
}
