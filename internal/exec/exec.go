// Package exec runs both evaluation strategies behind the public entry
// points. Direct (direct.go) is the one call sequence of the direct
// algorithm. The rest is the incremental execution engine for the
// schema-driven strategy (Section 7.4, Figure 6): one k-growing loop shared
// by every public entry point (Search, Stream, SearchExplained, Results).
//
// Each round plans the best k second-level queries against the schema,
// skips the ones already executed in earlier rounds (signature dedup — the
// k-best list for a larger k extends the list for a smaller k), executes
// the new ones against the secondary index, and grows k geometrically until
// enough results are found or the plan space is exhausted.
//
// The secondary stage is embarrassingly parallel: the second-level queries
// of a round are independent semijoin programs. The engine fans them out
// over a bounded worker pool while preserving the sequential result order
// with an ordered fan-in — the results of query i are released only after
// queries 0..i-1 have delivered theirs — so parallel and sequential
// execution emit identical (root, cost) sequences.
package exec

import (
	"context"
	"runtime"
	"sync"
	"time"

	"approxql/internal/backend"
	"approxql/internal/cost"
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
	// InitialK is the first guess for k ("a good initial guess of k is
	// crucial", Section 7.4). Zero means max(N, 8), or 16 when all
	// results are wanted. The engine clamps it to [1, MaxK]. When a round
	// yields too few results, k grows by δ, which starts at the first k
	// and doubles every round: the skeleton space can grow with k, so a
	// fixed δ may never catch up when many results are wanted, while a
	// doubling δ keeps the number of rounds logarithmic.
	InitialK int
	// MaxK stops the search once k reaches it even if fewer than N
	// results were found; k never exceeds it. Zero derives the bound from
	// the schema (kbest.PlanBound): the maximum number of distinct
	// second-level queries the plan can generate, past which growing k is
	// provably useless.
	MaxK int
	// Parallelism is the worker-pool size for the secondary stage.
	// Zero means GOMAXPROCS; 1 executes sequentially in the calling
	// goroutine. Results are deterministic at any setting.
	Parallelism int
	// Metrics, when non-nil, receives per-stage counters and timings.
	Metrics *Metrics
	// Bound, when non-nil, supplies an external upper bound on useful
	// result costs — the scatter-gather cutoff of a sharded corpus: the
	// current global n-th cost published by the merging top-n heap. The
	// engine skips every second-level query whose cost strictly exceeds
	// the bound and, because planning emits queries in ascending cost
	// order, terminates the k-growing loop at the first such query. The
	// function must be safe for concurrent use and monotone non-increasing
	// over the run (a shrinking top-n threshold); under that contract a
	// skip can never discard a query that a later, tighter bound would
	// have wanted. Return cost.Inf while no bound is known.
	Bound func() cost.Cost
}

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
}

// New returns an engine over sch reading I_sec postings from sec: the
// in-memory schema itself, a schema.StoredSec, or a full backend.Backend —
// the engine consumes only the secondary-source interface. Backends that
// additionally expose shared-cache counters (cacheStatser, satisfied by
// backend.Backend) have their fetch statistics snapshotted into Metrics
// around every run.
func New(sch *schema.Schema, sec schema.SecSource, cfg Config) *Engine {
	return &Engine{sch: sch, sec: sec, cfg: cfg}
}

// cacheStatser is the optional fetch-statistics surface of a storage
// backend; backend.Backend satisfies it.
type cacheStatser interface {
	CacheStats() backend.CacheStats
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
// truncate.
func (g *Engine) Run(ctx context.Context, x *lang.Expanded, emit func(Item) bool) error {
	m := g.cfg.Metrics
	if m == nil {
		m = &Metrics{}
	}
	defer g.snapshotCacheStats(m)()

	maxK := g.cfg.MaxK
	derivedMax := maxK <= 0
	if derivedMax {
		maxK = kbest.PlanBound(g.sch, x)
	}
	k := g.cfg.InitialK
	if k <= 0 {
		k = 16
		if g.cfg.N > 0 {
			k = max(g.cfg.N, 8)
		}
	}
	k = max(min(k, maxK), 1)
	delta := k
	m.MaxK = maxK
	m.Parallelism = g.parallelism()

	// target bounds the emission count: every result root is an instance
	// of a schema class carrying the root label or one of its renamings,
	// so reaching the bound ends the search even when more second-level
	// queries exist — they can only re-find known roots.
	target := rootResultBound(g.sch, x)
	if g.cfg.N > 0 && g.cfg.N < target {
		target = g.cfg.N
	}

	seen := make(map[xmltree.NodeID]bool)
	// executed identifies already-evaluated second-level queries by their
	// skeleton signature. The paper erases the first k_prev entries (the
	// list for k' > k extends the list for k); signatures additionally
	// survive reordering among equal-cost queries across rounds. Signatures
	// are built in one reused buffer; only an insert copies one out.
	executed := make(map[string]bool)
	var sig []byte
	emitted := 0
	stopped := false // emit returned false, or target reached

	deliver := func(e *kbest.Entry, roots []xmltree.NodeID) bool {
		for _, u := range roots {
			if seen[u] {
				continue
			}
			seen[u] = true
			emitted++
			m.ResultsEmitted++
			if !emit(Item{Root: u, Cost: e.Cost, Plan: e}) {
				stopped = true
				return false
			}
		}
		if emitted >= target {
			stopped = true
			return false
		}
		return true
	}

	if emitted >= target {
		return nil
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		en := kbest.NewEngineWithSecondary(g.sch, k, g.sec)
		t0 := time.Now()
		lp, err := en.SecondLevelContext(ctx, x)
		m.PlanTime += time.Since(t0)
		if err != nil {
			return err
		}
		m.Rounds++
		m.KPerRound = append(m.KPerRound, k)
		m.FinalK = k
		m.Planned += len(lp)

		pending := lp[:0:0]
		for _, e := range lp {
			sig = kbest.AppendSignature(sig[:0], e)
			if executed[string(sig)] {
				continue
			}
			executed[string(sig)] = true
			pending = append(pending, e)
		}
		m.Deduped += len(lp) - len(pending)

		// External cost-bound cutoff: pending is sorted by ascending cost,
		// so everything from the first over-bound query on is useless now —
		// and, the bound being monotone non-increasing, useless forever.
		// Later rounds only plan queries at least as expensive as the ones
		// cut here (the k-best list for a larger k extends this list), so
		// the whole k-growing loop can stop after this round's survivors.
		boundStopped := false
		if g.cfg.Bound != nil {
			if cut := cutAtBound(pending, g.cfg.Bound()); cut < len(pending) {
				m.BoundSkipped += len(pending) - cut
				pending = pending[:cut]
				boundStopped = true
			}
		}
		m.Executed += len(pending)

		t0 = time.Now()
		midStop, err := g.runSecondary(ctx, en, pending, m, deliver)
		m.ExecTime += time.Since(t0)
		boundStopped = boundStopped || midStop

		s := en.Stats()
		m.SchemaFetches += s.Fetches
		m.ListOps += s.ListOps
		if err != nil {
			return err
		}
		if boundStopped {
			m.BoundStops++
			return nil
		}
		if stopped || len(lp) < k {
			return nil
		}
		if k >= maxK {
			// A derived bound dominates the number of distinct
			// second-level queries, so every one of them was planned this
			// round and the answer is exact; only a user-supplied MaxK
			// (or a saturated derived bound) cuts the search short.
			m.Truncated = !derivedMax || maxK >= kbest.PlanBoundCeiling
			return nil
		}
		k = min(k+delta, maxK)
		delta *= 2
	}
}

// parallelism resolves the configured worker count.
func (g *Engine) parallelism() int {
	p := g.cfg.Parallelism
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	return p
}

// cutAtBound returns the number of leading entries of the cost-sorted list
// whose cost does not strictly exceed bound. Equal-cost entries survive:
// under the (cost, doc, root) total order of a merging heap they can still
// displace the current n-th result.
func cutAtBound(pending []*kbest.Entry, bound cost.Cost) int {
	for i, e := range pending {
		if e.Cost > bound {
			return i
		}
	}
	return len(pending)
}

// runSecondary executes the pending second-level queries of one round in
// order, delivering each query's roots through deliver (which returns false
// to stop). With parallelism > 1 the queries run concurrently on a worker
// pool and are released through an ordered fan-in, so delivery order — and
// therefore every emitted sequence — is identical to sequential execution.
// The external cost bound is re-read during the round (it tightens while
// other shards report results); runSecondary reports true when it stopped
// the round because the bound was crossed mid-way.
func (g *Engine) runSecondary(ctx context.Context, en *kbest.Engine, pending []*kbest.Entry, m *Metrics, deliver func(*kbest.Entry, []xmltree.NodeID) bool) (bool, error) {
	if len(pending) == 0 {
		return false, nil
	}
	bound := g.cfg.Bound
	p := g.parallelism()
	if p > len(pending) {
		p = len(pending)
	}
	if p <= 1 {
		ex := en.NewExecutor()
		defer func() {
			s := ex.Stats()
			m.SecondaryFetches += s.Runs
			m.PostingsScanned += s.PostingsScanned
		}()
		for i, e := range pending {
			if bound != nil && e.Cost > bound() {
				m.BoundSkipped += len(pending) - i
				return true, nil
			}
			roots, err := ex.Secondary(ctx, e)
			if err != nil {
				return false, err
			}
			if !deliver(e, roots) {
				return false, nil
			}
		}
		return false, nil
	}

	// The queries are grouped into contiguous batches: one channel round
	// trip per batch instead of per query (individual second-level queries
	// can be microseconds of work), and a worker's executor cache gets
	// reused across the whole batch. Order is preserved — batches are
	// delivered in sequence, queries in sequence within each batch.
	batchSize := (len(pending) + p*4 - 1) / (p * 4)
	if batchSize > 64 {
		batchSize = 64
	}
	numBatches := (len(pending) + batchSize - 1) / batchSize

	type slot struct {
		roots [][]xmltree.NodeID // per query of the batch; short on error
		err   error
		done  chan struct{}
	}
	slots := make([]slot, numBatches)
	for i := range slots {
		slots[i].done = make(chan struct{})
	}
	ctx2, cancel := context.WithCancel(ctx)
	defer cancel()

	jobs := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex
	for w := 0; w < p; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker owns an executor: caches and counters are
			// per-goroutine, the schema and secondary source are shared
			// (and safe for concurrent reads).
			ex := en.NewExecutor()
			skipped := 0
			for bi := range jobs {
				lo := bi * batchSize
				hi := lo + batchSize
				if hi > len(pending) {
					hi = len(pending)
				}
				res := make([][]xmltree.NodeID, 0, hi-lo)
				for _, e := range pending[lo:hi] {
					// The bound can tighten while the batch runs; a nil
					// slot keeps delivery indexing aligned and delivers
					// nothing. The ordered fan-in re-checks the bound and
					// stops the round at the first over-bound query.
					if bound != nil && e.Cost > bound() {
						skipped++
						res = append(res, nil)
						continue
					}
					roots, err := ex.Secondary(ctx2, e)
					if err != nil {
						slots[bi].err = err
						break
					}
					res = append(res, roots)
				}
				slots[bi].roots = res
				close(slots[bi].done)
			}
			s := ex.Stats()
			mu.Lock()
			m.SecondaryFetches += s.Runs
			m.PostingsScanned += s.PostingsScanned
			m.BoundSkipped += skipped
			mu.Unlock()
		}()
	}
	go func() {
		defer close(jobs)
		for bi := 0; bi < numBatches; bi++ {
			select {
			case jobs <- bi:
			case <-ctx2.Done():
				return
			}
		}
	}()
	defer wg.Wait()

	// Ordered fan-in: query i's results are released only after queries
	// 0..i-1 have delivered theirs.
	for bi := 0; bi < numBatches; bi++ {
		select {
		case <-slots[bi].done:
		case <-ctx2.Done():
			return false, ctx2.Err()
		}
		lo := bi * batchSize
		for j, roots := range slots[bi].roots {
			if bound != nil && pending[lo+j].Cost > bound() {
				cancel()
				return true, nil
			}
			if !deliver(pending[lo+j], roots) {
				cancel()
				return false, nil
			}
		}
		if slots[bi].err != nil {
			cancel()
			return false, slots[bi].err
		}
	}
	return false, nil
}

// rootResultBound bounds the achievable result count: the instances of the
// schema classes carrying the root label or one of its renamings.
func rootResultBound(sch *schema.Schema, x *lang.Expanded) int {
	labels := []string{x.Root.Label}
	for _, r := range x.Root.Renamings {
		labels = append(labels, r.To)
	}
	bound := 0
	for _, label := range labels {
		for _, c := range sch.StructClasses(label) {
			bound += len(sch.Instances(c))
		}
	}
	return bound
}

// PlanInfo describes one planned second-level query for introspection.
type PlanInfo struct {
	// Entry is the second-level query; render it with kbest.Render.
	Entry *kbest.Entry
	// Results is the number of data subtrees the query retrieves,
	// obtained through the count-only path — no result list is built.
	Results int
}

// Explain plans the best k second-level queries for x and reports each
// query's result count without materializing any result list (the
// count-only path of the secondary index).
func (g *Engine) Explain(ctx context.Context, x *lang.Expanded, k int) ([]PlanInfo, error) {
	if g.cfg.Metrics != nil {
		defer g.snapshotCacheStats(g.cfg.Metrics)()
	}
	en := kbest.NewEngineWithSecondary(g.sch, k, g.sec)
	lp, err := en.SecondLevelContext(ctx, x)
	if err != nil {
		return nil, err
	}
	out := make([]PlanInfo, len(lp))
	for i, e := range lp {
		n, err := en.SecondaryCount(ctx, e)
		if err != nil {
			return nil, err
		}
		out[i] = PlanInfo{Entry: e, Results: n}
	}
	return out, nil
}
