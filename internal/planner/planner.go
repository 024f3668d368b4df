// Package planner implements the paper's §V-A and §V-D research directions:
// a higher-level, declarative abstraction on top of Reference-Dereference,
// and the selectivity-based plan choice the paper says would let ReDe
// "perform comparably with Impala in the high selectivity range".
//
// A Query declares a driving range predicate over an indexed column and a
// chain of equi-joins; the planner
//
//  1. estimates the driving predicate's selectivity by sampling the index,
//  2. costs an index plan (a generated Reference-Dereference job run with
//     SMPE) against a scan plan (full scans + hash joins on the baseline
//     engine) using the cluster's cost model, and
//  3. compiles and executes the cheaper one.
//
// The compiled index plan uses exactly the pre-defined Referencers and
// Dereferencers of internal/core, so the planner is evidence for the
// paper's claim that a higher-level layer can sit on the abstraction
// without changing the engine.
package planner

import (
	"context"
	"fmt"
	"strings"
	"time"

	"lakeharbor/internal/baseline"
	"lakeharbor/internal/catalog"
	"lakeharbor/internal/core"
	"lakeharbor/internal/dfs"
	"lakeharbor/internal/lake"
	"lakeharbor/internal/trace"
)

// Table describes one base file to the planner.
type Table struct {
	// Name is the catalog file name.
	Name string
	// Interp interprets the table's raw records.
	Interp core.Interpreter
	// Key is the field name of the primary key (also the partition key).
	Key string
	// Encode appends the ordered key of a field value of the key (or of a
	// join field) to dst — a core.FieldRef encoder, with its contract.
	Encode func(dst []byte, value string) ([]byte, error)
}

// Join is one hop of the join chain: match a field of the rows
// accumulated so far against a column of table To.
type Join struct {
	// FromField is the field (of the accumulated composite row) whose
	// value drives the join.
	FromField string
	// To is the table being joined in.
	To Table
	// ToField is the matched column of To. If it equals To.Key the join
	// fetches rows directly by primary key; if ViaIndex names a global
	// index on ToField, the join probes the index; if Prefix is set, To's
	// rows are keyed by (FromField, ...) and fetched by prefix range.
	ToField string
	// ViaIndex is the catalog name of a global index on To(ToField).
	ViaIndex string
	// Prefix selects prefix-range fetching on To's primary key order.
	Prefix bool
	// Pred optionally drops rows right after this hop, evaluated over the
	// merged schema-on-read fields of everything joined so far.
	Pred func(core.Fields) (bool, error)
}

// Query is a declarative select-project-join over the catalog.
type Query struct {
	// Name labels the query.
	Name string
	// From is the driving table.
	From Table
	// DriverIndex is an index over From; the driving predicate is a key
	// range on it.
	DriverIndex string
	// DriverLo and DriverHi bound the driving predicate (inclusive).
	DriverLo, DriverHi lake.Key
	// DriverPred is the same predicate as the index range, expressed over
	// From's fields; the scan plan needs it because it has no index to
	// push the range into.
	DriverPred func(core.Fields) (bool, error)
	// Joins is the join chain, applied in order.
	Joins []Join
	// Where optionally filters the final rows, evaluated over the merged
	// fields of the whole chain.
	Where func(core.Fields) (bool, error)
}

// Validate checks the query's structural requirements.
func (q *Query) Validate() error {
	if q.From.Name == "" || q.From.Interp == nil || q.From.Encode == nil {
		return fmt.Errorf("planner: query %q: From table incomplete", q.Name)
	}
	if q.DriverIndex == "" {
		return fmt.Errorf("planner: query %q: no driver index", q.Name)
	}
	if q.DriverLo > q.DriverHi {
		return fmt.Errorf("planner: query %q: empty driver range", q.Name)
	}
	if q.DriverPred == nil {
		return fmt.Errorf("planner: query %q: DriverPred is required (the scan plan has no index to bound)", q.Name)
	}
	for i, j := range q.Joins {
		if j.To.Name == "" || j.To.Interp == nil || j.To.Encode == nil {
			return fmt.Errorf("planner: query %q: join %d target incomplete", q.Name, i)
		}
		if j.FromField == "" {
			return fmt.Errorf("planner: query %q: join %d has no FromField", q.Name, i)
		}
		if j.ViaIndex != "" && j.Prefix {
			return fmt.Errorf("planner: query %q: join %d sets both ViaIndex and Prefix", q.Name, i)
		}
	}
	return nil
}

// Strategy names a chosen execution strategy.
type Strategy int

const (
	// IndexPlan executes a generated Reference-Dereference job with SMPE.
	IndexPlan Strategy = iota
	// ScanPlan executes full scans + hash joins on the baseline engine.
	ScanPlan
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	if s == ScanPlan {
		return "scan"
	}
	return "index"
}

// Plan is a costed, executable plan.
type Plan struct {
	Query    *Query
	Strategy Strategy
	// Degraded reports that the scan strategy was forced because a required
	// structure was not ready (building or evicted), not chosen on cost.
	Degraded bool
	// NotReady names the structure that forced the degraded route.
	NotReady string
	// BuildWait is how long planning waited on in-flight structure builds
	// (bounded by Planner.MaxBuildWait).
	BuildWait time.Duration
	// CatalogVersion is the catalog version the plan was made against
	// (0 when the planner has no catalog attached). It travels into the
	// execution trace so a plan and the catalog it observed can be lined up
	// after the fact.
	CatalogVersion uint64
	// EstimatedDriverRows is the sampled estimate of rows matching the
	// driving predicate.
	EstimatedDriverRows int64
	// EstimatedIndexCost and EstimatedScanCost are the modeled execution
	// times of the two strategies.
	EstimatedIndexCost time.Duration
	EstimatedScanCost  time.Duration

	planner *Planner
}

// Route names the plan's execution route for trace attribution: "index",
// "scan" (chosen on cost), or "scan-fallback" (forced by a structure that
// was not ready).
func (p *Plan) Route() string {
	switch {
	case p.Strategy == IndexPlan:
		return "index"
	case p.Degraded:
		return "scan-fallback"
	default:
		return "scan"
	}
}

// Explain renders the planning decision for humans.
func (p *Plan) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "query %q: strategy=%s\n", p.Query.Name, p.Strategy)
	if p.CatalogVersion > 0 {
		fmt.Fprintf(&b, "  catalog version: %d\n", p.CatalogVersion)
	}
	if p.Degraded {
		fmt.Fprintf(&b, "  degraded: structure %q not ready (waited %v); scan fallback\n", p.NotReady, p.BuildWait)
	}
	fmt.Fprintf(&b, "  estimated driver rows: %d\n", p.EstimatedDriverRows)
	fmt.Fprintf(&b, "  estimated cost: index=%v scan=%v\n", p.EstimatedIndexCost, p.EstimatedScanCost)
	fmt.Fprintf(&b, "  chain: %s[%s]", p.Query.From.Name, p.Query.DriverIndex)
	for _, j := range p.Query.Joins {
		how := "pk"
		if j.ViaIndex != "" {
			how = "idx:" + j.ViaIndex
		} else if j.Prefix {
			how = "prefix"
		}
		fmt.Fprintf(&b, " ⋈(%s→%s.%s via %s)", j.FromField, j.To.Name, j.ToField, how)
	}
	return b.String()
}

// StructureView is the planner's window into the structure lifecycle
// manager (indexer.Manager implements it). Acquire reports whether the
// named structure is resident and ready, touching it for LRU accounting;
// when it is building and maxWait > 0 it may wait for the build, returning
// the time spent; when it is absent or evicted it kicks off a background
// rebuild and reports not ready. Unknown names must report ready.
type StructureView interface {
	Acquire(ctx context.Context, name string, maxWait time.Duration) (ready bool, waited time.Duration)
}

// Planner plans and executes queries over one cluster.
type Planner struct {
	cluster *dfs.Cluster
	engine  *baseline.Engine
	// SMPEOptions configures index-plan execution.
	SMPEOptions core.Options
	// Structures, when set, routes queries around structures that are not
	// resident: a query whose driver index or join index is building or
	// evicted degrades to the scan plan instead of blocking on the build
	// (graceful degradation). Nil preserves the old behavior of assuming
	// every registered structure exists.
	Structures StructureView
	// MaxBuildWait bounds the total time Plan may spend waiting on
	// in-flight structure builds before degrading to the scan path. Zero
	// never waits.
	MaxBuildWait time.Duration
	// Catalog, when set, stamps each plan with the catalog version it was
	// planned against (catalog.Service satisfies this). Sources that also
	// implement CatalogViews upgrade planning to one transactional snapshot
	// per Plan call: existence and partition-count checks then read that
	// view instead of the live cluster catalog.
	Catalog CatalogVersions
}

// CatalogVersions reports a monotonically increasing catalog version; it is
// the planner's window into the versioned metadata service.
type CatalogVersions interface {
	Version() uint64
}

// CatalogViews extends CatalogVersions with transactional snapshots.
// catalog.Service satisfies it. When the attached Catalog implements this,
// Plan takes ONE Snapshot per planning pass and answers every catalog
// question (file existence, partition counts) from that view, so a
// concurrent create or drop cannot tear a single plan between two catalog
// versions.
type CatalogViews interface {
	CatalogVersions
	Snapshot() catalog.View
}

// New returns a Planner over the cluster. coresPerNode configures the scan
// engine's static parallelism (0 = default).
func New(cluster *dfs.Cluster, coresPerNode int) *Planner {
	return &Planner{
		cluster: cluster,
		engine:  baseline.New(cluster, coresPerNode),
	}
}

// structureNames lists every structure the index plan depends on: the
// driver index plus each join's probe index.
func (q *Query) structureNames() []string {
	names := []string{q.DriverIndex}
	for _, j := range q.Joins {
		if j.ViaIndex != "" {
			names = append(names, j.ViaIndex)
		}
	}
	return names
}

// Plan estimates costs for both strategies and picks the cheaper one. With
// a StructureView attached, a query whose structures are not all ready is
// routed to the scan plan (after waiting up to MaxBuildWait for in-flight
// builds) rather than blocking — the degraded route and the build wait are
// recorded on the plan and, at execution, in the result's trace.
func (pl *Planner) Plan(ctx context.Context, q *Query) (*Plan, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	// The catalog is read once, up front — as a transactional snapshot when
	// the attached service supports it, so existence and partition-count
	// checks downstream all see the same version; otherwise just the
	// version number for trace attribution.
	var (
		cv   uint64
		view *catalog.View
	)
	if pl.Catalog != nil {
		if s, ok := pl.Catalog.(CatalogViews); ok {
			v := s.Snapshot()
			view = &v
			cv = v.Version
		} else {
			cv = pl.Catalog.Version()
		}
	}
	if pl.Structures != nil {
		var waited time.Duration
		for _, name := range q.structureNames() {
			budget := pl.MaxBuildWait - waited
			if budget < 0 {
				budget = 0
			}
			ready, w := pl.Structures.Acquire(ctx, name, budget)
			waited += w
			if !ready {
				return &Plan{
					Query:          q,
					Strategy:       ScanPlan,
					Degraded:       true,
					NotReady:       name,
					BuildWait:      waited,
					CatalogVersion: cv,
					planner:        pl,
				}, nil
			}
		}
		p, err := pl.planCosted(ctx, q, view)
		if p != nil {
			p.BuildWait = waited
			p.CatalogVersion = cv
		}
		return p, err
	}
	p, err := pl.planCosted(ctx, q, view)
	if p != nil {
		p.CatalogVersion = cv
	}
	return p, err
}

// viewMeta resolves name against the planning snapshot when one was taken.
// A file absent at the snapshot's version is a planning error naming that
// version — better than racing the live catalog halfway through costing.
// Without a snapshot it reports not-found without error and callers fall
// back to asking the cluster directly.
func viewMeta(view *catalog.View, name string) (catalog.FileMeta, bool, error) {
	if view == nil {
		return catalog.FileMeta{}, false, nil
	}
	meta, ok := view.File(name)
	if !ok {
		return catalog.FileMeta{}, false, fmt.Errorf(
			"planner: %q not in catalog at version %d", name, view.Version)
	}
	return meta, true, nil
}

// planCosted is the cost-based strategy choice over structures assumed
// present.
func (pl *Planner) planCosted(ctx context.Context, q *Query, view *catalog.View) (*Plan, error) {
	if _, _, err := viewMeta(view, q.DriverIndex); err != nil {
		return nil, err
	}
	driverRows, err := EstimateRangeRows(ctx, pl.cluster, q.DriverIndex, q.DriverLo, q.DriverHi)
	if err != nil {
		return nil, err
	}
	idxCost, scanCost, err := pl.costs(q, driverRows, view)
	if err != nil {
		return nil, err
	}
	p := &Plan{
		Query:               q,
		EstimatedDriverRows: driverRows,
		EstimatedIndexCost:  idxCost,
		EstimatedScanCost:   scanCost,
		planner:             pl,
	}
	if scanCost < idxCost {
		p.Strategy = ScanPlan
	}
	return p, nil
}

// Execute runs the plan and returns the final rows as composite records
// (index plan) or equivalent joined rows (scan plan), plus the count. The
// chosen route and any structure build wait are recorded in the result's
// trace; scan-plan runs, which bypass the SMPE executor, get a minimal
// trace carrying just that attribution.
func (p *Plan) Execute(ctx context.Context) (*core.Result, error) {
	switch p.Strategy {
	case IndexPlan:
		job, err := CompileJob(p.Query)
		if err != nil {
			return nil, err
		}
		res, err := core.ExecuteSMPE(ctx, job, p.planner.cluster, p.planner.cluster, p.planner.SMPEOptions)
		if err == nil && res.Trace != nil {
			res.Trace.Route = p.Route()
			res.Trace.BuildWait = p.BuildWait
			res.Trace.CatalogVersion = p.CatalogVersion
		}
		return res, err
	default:
		start := time.Now()
		res, err := p.planner.executeScan(ctx, p.Query)
		if err == nil {
			if res.Trace == nil {
				res.Trace = &trace.Snapshot{Job: p.Query.Name, Start: start, Elapsed: res.Elapsed}
			}
			res.Trace.Route = p.Route()
			res.Trace.BuildWait = p.BuildWait
			res.Trace.CatalogVersion = p.CatalogVersion
		}
		return res, err
	}
}

// costs models both strategies with the cluster's cost model. The index
// plan pays one random lookup per touched record, overlapped up to the
// cluster's aggregate I/O service concurrency; the scan plan pays a
// streaming scan of every joined table, overlapped across partitions up to
// per-node spindles/cores.
func (pl *Planner) costs(q *Query, driverRows int64, view *catalog.View) (idx, scan time.Duration, err error) {
	cost := pl.cluster.Cost()
	nodes := pl.cluster.NumNodes()

	// Aggregate service concurrency for random I/O.
	conc := nodes * cost.Spindles
	if conc <= 0 {
		conc = nodes * 64 // effectively unbounded model; just overlap a lot
	}

	// Index plan: per driver row, one fetch of the base record plus each
	// join hop (index probes count as an extra lookup). Fanout per hop is
	// unknown without column stats; assume 1 (equi-joins on keys) plus
	// one extra for prefix hops, which is the right order of magnitude
	// for the workloads here.
	lookupsPerRow := int64(1)
	for _, j := range q.Joins {
		lookupsPerRow++
		if j.ViaIndex != "" || j.Prefix {
			lookupsPerRow++
		}
	}
	totalLookups := driverRows*lookupsPerRow + int64(nodes) // + seed ranges
	idx = time.Duration(totalLookups) * cost.LookupLatency / time.Duration(conc)
	idx += 2 * time.Millisecond // fixed planning/startup overhead

	// Scan plan: every table in the chain is scanned once.
	totalScanned := int64(0)
	tables := []string{q.From.Name}
	for _, j := range q.Joins {
		tables = append(tables, j.To.Name)
	}
	scanConc := 1
	for _, name := range tables {
		// Catalog facts (existence, partition count) come from the planning
		// snapshot when one was taken; row counts are data-plane facts and
		// always come from the cluster.
		meta, fromView, ferr := viewMeta(view, name)
		if ferr != nil {
			return 0, 0, ferr
		}
		parts := meta.Partitions
		if !fromView {
			f, ferr := pl.cluster.File(name)
			if ferr != nil {
				return 0, 0, ferr
			}
			parts = f.NumPartitions()
		}
		n, ferr := pl.cluster.Len(name)
		if ferr != nil {
			return 0, 0, ferr
		}
		totalScanned += int64(n)
		if parts > scanConc {
			scanConc = parts
		}
	}
	if s := nodes * cost.Spindles; s > 0 && scanConc > s {
		scanConc = s
	}
	if c := pl.engine.Cores() * nodes; scanConc > c {
		scanConc = c
	}
	scan = time.Duration(totalScanned) * cost.ScanPerRecord / time.Duration(scanConc)
	scan += 2 * time.Millisecond
	return idx, scan, nil
}
