// Package exec runs both evaluation strategies over one backend. Direct
// (direct.go) is the one call sequence of the direct algorithm. The rest is
// the execution engine of the schema-driven strategy (Section 7.4,
// Figure 6). Every query of the public package reaches both through
// internal/corpus, one run per shard (a Database is a one-shard corpus).
//
// Figure 6 plans the best k second-level queries, executes them, and
// re-plans with a larger k when they found too few results. Here planning
// is one lazy stream of second-level queries in ascending cost order
// (kbest.Enumerate): the engine pulls a query, executes it against the
// secondary index, delivers its new roots, and pulls the next, until it has
// enough results or the stream ends. Nothing is planned twice and nothing
// is planned past the query that delivers the last result wanted. Both
// strategies run on the goroutine that calls them: the caller's for a
// Database, a shard worker's in a multi-shard search.
package exec

import (
	"context"
	"errors"
	"time"

	"approxql/internal/cost"
	"approxql/internal/index"
	"approxql/internal/kbest"
	"approxql/internal/lang"
	"approxql/internal/schema"
	"approxql/internal/xmltree"
)

// Config tunes one engine.
type Config struct {
	// N is the number of results wanted; <= 0 retrieves all approximate
	// results (bounded by the root-class instance count).
	N int
	// MaxK, when positive, caps the number of second-level queries pulled
	// from the plan stream; a run that hits the cap before the stream ends
	// reports Truncated. Zero pulls until N results are found or the stream
	// is exhausted.
	MaxK int
	// Deprecated: execution is sequential; Parallelism is ignored.
	Parallelism int
	// Metrics, when non-nil, receives per-stage counters and timings.
	Metrics *Metrics
	// Bound, when non-nil, supplies an external upper bound on useful
	// result costs — the scatter-gather cutoff of a sharded corpus: the
	// current global n-th cost published by the merging top-n heap. The
	// plan stream yields second-level queries in ascending cost order, so
	// the engine stops at the first one whose cost strictly exceeds the
	// bound. The function must be safe for concurrent use and monotone
	// non-increasing over the run (a shrinking top-n threshold); under that
	// contract a stop can never discard a query that a later, tighter
	// bound would have wanted. Return cost.Inf while no bound is known.
	Bound func() cost.Cost
	// Budget, when positive, caps the run's charge: second-level queries
	// pulled plus instance postings scanned. The charge is checked before
	// each second-level execution; a run whose charge exceeds the budget
	// stops with ErrBudget. The corpus's Auto strategy sets it to the
	// price of the direct algorithm (plan.Price) and falls back to Direct
	// on ErrBudget. Zero runs without a budget.
	Budget int
}

// ErrBudget is Run's error when the charge exceeded Config.Budget. The
// items emitted before it are correct but may be incomplete.
var ErrBudget = errors.New("exec: budget spent")

// Item is one emitted result: a distinct root, the cost of the cheapest
// second-level query that retrieved it, and that query itself.
type Item struct {
	Root xmltree.NodeID
	Cost cost.Cost
	// Plan is the second-level query that retrieved the root; render it
	// with kbest.Render for explanations.
	Plan *kbest.Entry
}

// Engine evaluates expanded queries against one schema and secondary-index
// source. It is stateless across Run calls and safe for concurrent use.
type Engine struct {
	sch *schema.Schema
	sec schema.SecSource
	cfg Config
	// kb plans and executes second-level queries; Run and Explain use
	// only its concurrency-safe Enumerate and NewExecutor.
	kb *kbest.Engine
}

// New returns an engine over sch reading I_sec postings from sec: the
// in-memory schema itself, a schema.StoredSec, or a full backend.Backend —
// the engine consumes only the secondary-source interface. Backends that
// additionally expose shared-cache counters (cacheStatser, satisfied by
// backend.Backend) have their fetch statistics snapshotted into Metrics
// around every run.
func New(sch *schema.Schema, sec schema.SecSource, cfg Config) *Engine {
	return &Engine{sch: sch, sec: sec, cfg: cfg, kb: kbest.NewEngineWithSecondary(sch, 1, sec)}
}

// cacheStatser is the optional fetch-statistics surface of a storage
// backend; backend.Backend satisfies it.
type cacheStatser interface {
	CacheStats() index.CacheStats
}

// snapshotCacheStats records the backend's cache counters and returns a
// function that folds the delta into m.
func (g *Engine) snapshotCacheStats(m *Metrics) func() {
	cs, ok := g.sec.(cacheStatser)
	if !ok {
		return func() {}
	}
	before := cs.CacheStats()
	return func() {
		after := cs.CacheStats()
		m.BackendFetches += int(after.Fetches - before.Fetches)
		m.BackendHits += int(after.Hits - before.Hits)
		m.BackendBytesDecoded += after.BytesDecoded - before.BytesDecoded
		m.PageReads += after.PageReads - before.PageReads
		m.PageEvictions += after.PageEvictions - before.PageEvictions
	}
}

// Run evaluates x incrementally, calling emit for every distinct result
// root in ascending cost order (ties in plan order). emit returns false to
// stop early; Run then returns nil without executing further second-level
// queries. The context cancels planning and secondary execution between
// steps; Run returns ctx.Err() when it fires.
//
// Run stops at the boundary of the second-level query that delivered the
// N-th result (all roots of that query are emitted), mirroring the
// sequential reference algorithm, so callers wanting exactly N must
// truncate. Under a Budget it may instead stop with ErrBudget.
func (g *Engine) Run(ctx context.Context, x *lang.Expanded, emit func(Item) bool) error {
	m := g.cfg.Metrics
	if m == nil {
		m = &Metrics{}
	}
	defer g.snapshotCacheStats(m)()
	m.MaxK = g.cfg.MaxK

	// target bounds the emission count: every result root is an instance
	// of a schema class carrying the root label or one of its renamings,
	// so reaching the bound ends the search even when more second-level
	// queries exist — they can only re-find known roots.
	target := rootResultBound(g.sch, x)
	if g.cfg.N > 0 && g.cfg.N < target {
		target = g.cfg.N
	}
	if target == 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}

	t0 := time.Now()
	st, err := g.kb.Enumerate(ctx, x)
	m.PlanTime += time.Since(t0)
	if err != nil {
		return err
	}
	ex := g.kb.NewExecutor()
	pulled := 0
	defer func() {
		s := st.Stats()
		st.Close()
		m.SchemaFetches += s.Fetches
		m.ListOps += s.ListOps
		xs := ex.Stats()
		m.SecondaryFetches += xs.Runs
		m.PostingsScanned += xs.PostingsScanned
		m.FinalK = pulled
	}()
	m.Rounds++

	seen := make(map[xmltree.NodeID]bool)
	// The stream can yield two queries with one skeleton signature when
	// the query repeats a subexpression; the later one is never cheaper
	// and retrieves the same roots, so it is skipped. Signatures are built
	// in one reused buffer and kept in a pooled slab.
	executed := getSigSet()
	defer executed.release()
	var sig []byte
	emitted := 0
	for {
		t0 = time.Now()
		e, err := st.Next()
		m.PlanTime += time.Since(t0)
		if err != nil || e == nil {
			return err
		}
		if g.cfg.MaxK > 0 && pulled == g.cfg.MaxK {
			m.Truncated = true
			return nil
		}
		pulled++
		m.Planned++
		// External cost-bound cutoff: the stream ascends in cost, so
		// everything from the first over-bound query on is useless now —
		// and, the bound being monotone non-increasing, useless forever.
		if g.cfg.Bound != nil && e.Cost > g.cfg.Bound() {
			m.BoundSkipped++
			m.BoundStops++
			return nil
		}
		sig = kbest.AppendSignature(sig[:0], e)
		if !executed.add(sig) {
			m.Deduped++
			continue
		}
		if g.cfg.Budget > 0 && pulled+ex.Stats().PostingsScanned > g.cfg.Budget {
			return ErrBudget
		}

		m.Executed++
		t0 = time.Now()
		roots, err := ex.Secondary(ctx, e)
		m.ExecTime += time.Since(t0)
		if err != nil {
			return err
		}
		if len(roots) == 0 {
			m.EmptyExecuted++
		}
		for _, u := range roots {
			if seen[u] {
				continue
			}
			seen[u] = true
			emitted++
			m.ResultsEmitted++
			if !emit(Item{Root: u, Cost: e.Cost, Plan: e}) {
				return nil
			}
		}
		if emitted >= target {
			return nil
		}
	}
}

// rootResultBound bounds the achievable result count: the instances of the
// schema classes carrying the root label or one of its renamings.
func rootResultBound(sch *schema.Schema, x *lang.Expanded) int {
	bound := labelInstances(sch, x.Root.Label)
	for _, r := range x.Root.Renamings {
		bound += labelInstances(sch, r.To)
	}
	return bound
}

// labelInstances counts the instances of the struct classes carrying label.
func labelInstances(sch *schema.Schema, label string) int {
	n := 0
	for _, c := range sch.StructClasses(label) {
		n += len(sch.Instances(c))
	}
	return n
}

// PlanInfo describes one planned second-level query for introspection.
type PlanInfo struct {
	// Entry is the second-level query; render it with kbest.Render.
	Entry *kbest.Entry
	// Results is the number of data subtrees the query retrieves,
	// obtained through the count-only path — no result list is built.
	Results int
}

// Explain plans the best k second-level queries for x — the first k of
// the plan stream — and reports each query's result count without
// materializing any result list (the count-only path of the secondary
// index).
func (g *Engine) Explain(ctx context.Context, x *lang.Expanded, k int) ([]PlanInfo, error) {
	if g.cfg.Metrics != nil {
		defer g.snapshotCacheStats(g.cfg.Metrics)()
	}
	st, err := g.kb.Enumerate(ctx, x)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	ex := g.kb.NewExecutor()
	var out []PlanInfo
	for len(out) < max(k, 1) {
		e, err := st.Next()
		if err != nil {
			return nil, err
		}
		if e == nil {
			break
		}
		n, err := ex.SecondaryCount(ctx, e)
		if err != nil {
			return nil, err
		}
		out = append(out, PlanInfo{Entry: e, Results: n})
	}
	return out, nil
}
