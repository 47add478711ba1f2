package corpus

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"approxql/internal/cost"
	"approxql/internal/eval"
	"approxql/internal/exec"
	"approxql/internal/kbest"
	"approxql/internal/lang"
	"approxql/internal/plan"
)

// ranked ties the gather heap to the corpus's (cost, doc, root) total
// order: any element type that can surface the Hit it is ranked by. Hit
// qualifies trivially; ClusterHit and planned embed one and inherit the
// method.
type ranked interface{ rankKey() Hit }

func (h Hit) rankKey() Hit { return h }

// planned is an entry of a search's gather heap: a hit and the
// second-level query that retrieved it, nil for a direct shard's hit.
type planned struct {
	Hit
	plan *kbest.Entry
}

// topn is the gathering side of a corpus search: a bounded max-heap over
// the (cost, doc, root) total order, shared by every shard worker (or, on
// a cluster gatherer, every node driver). Its Bound method is the cutoff
// published to the in-flight shard engines; it is monotone non-increasing
// over a search, as exec.Config.Bound requires, because entries only ever
// displace worse entries.
type topn[T ranked] struct {
	mu sync.Mutex
	n  int // <= 0: unbounded, collect everything
	h  []T // max-heap on less when bounded; plain slice otherwise
}

func newTopN[T ranked](n int) *topn[T] {
	t := &topn[T]{n: n}
	if n > 0 {
		t.h = make([]T, 0, n)
	}
	return t
}

// Offer inserts the hit if it belongs in the current top n and reports
// whether the offering shard should keep going. It returns false only when
// the heap is full and the hit's cost strictly exceeds the current n-th
// cost: shards emit in ascending cost order, so nothing they produce later
// can displace a top-n entry either. An equal-cost hit never stops the
// shard — under the (cost, doc, root) tie-break it may still displace the
// current maximum, and so may a later root at the same cost.
func (t *topn[T]) Offer(h T) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.n <= 0 {
		t.h = append(t.h, h)
		return true
	}
	if len(t.h) < t.n {
		t.h = append(t.h, h)
		t.up(len(t.h) - 1)
		return true
	}
	k, worst := h.rankKey(), t.h[0].rankKey()
	if k.Cost > worst.Cost {
		return false
	}
	if !less(k, worst) {
		return true
	}
	t.h[0] = h
	t.down(0)
	return true
}

// Bound returns the current cutoff: the n-th best cost once the heap is
// full, cost.Inf before that (and always for unbounded collection).
func (t *topn[T]) Bound() cost.Cost {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.n <= 0 || len(t.h) < t.n {
		return cost.Inf
	}
	return t.h[0].rankKey().Cost
}

// Sorted drains the heap into an ascending (cost, doc, root) slice. The
// topn must not be offered to afterwards.
func (t *topn[T]) Sorted() []T {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.h
	t.h = nil
	slices.SortFunc(out, func(a, b T) int { return compare(a.rankKey(), b.rankKey()) })
	return out
}

// up and down maintain the max-heap property under less (the maximum —
// the currently worst kept hit — sits at index 0).
func (t *topn[T]) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !less(t.h[p].rankKey(), t.h[i].rankKey()) {
			return
		}
		t.h[p], t.h[i] = t.h[i], t.h[p]
		i = p
	}
}

func (t *topn[T]) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < len(t.h) && less(t.h[big].rankKey(), t.h[l].rankKey()) {
			big = l
		}
		if r < len(t.h) && less(t.h[big].rankKey(), t.h[r].rankKey()) {
			big = r
		}
		if big == i {
			return
		}
		t.h[i], t.h[big] = t.h[big], t.h[i]
		i = big
	}
}

// resolveWorkers picks the shard-level pool size: cfg.Parallelism, or
// GOMAXPROCS when it is zero, and never more than one worker per shard.
func resolveWorkers(cfg Config, shards int) int {
	workers := cfg.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return min(workers, shards)
}

// Search returns the global best n hits for the expanded query, ranked by
// ascending (cost, doc, root) and converted by conv into the caller's
// element type; conv also receives the second-level query that retrieved
// the hit, nil when a direct shard found it. n <= 0 returns all
// approximate hits. The ranking is bit-identical across shard counts,
// strategies, and parallelism settings: the heap's total order makes
// gathering arrival-order independent, and each shard contributes a
// superset of its part of the global answer (see searchShard for the
// schema-driven side; direct shards compute exact per-shard top-n, which
// within a shard coincides with the global order restricted to it).
//
// bound, when non-nil, is an external cost cutoff — typically a cluster
// gatherer's current global n-th cost — that must be monotone
// non-increasing, returning cost.Inf while no bound is known.
// Schema-driven shards stop at min(bound, the search's own n-th cost);
// direct shards ignore it. The returned hits no costlier than bound's
// final value are those of the unbounded search; costlier ones may not
// be, and the caller drops them.
func Search[T any](ctx context.Context, c *Corpus, x *lang.Expanded, n int, bound func() cost.Cost, cfg Config, conv func(Hit, *kbest.Entry) T) ([]T, error) {
	active, pruned := c.filterShards(x)
	if len(active) == 1 {
		return searchOne(ctx, active[0], pruned, x, n, bound, cfg, conv)
	}
	heap := newTopN[planned](n)
	cut := heap.Bound
	if bound != nil {
		cut = func() cost.Cost { return min(heap.Bound(), bound()) }
	}
	offerHit := func(h Hit) bool { return heap.Offer(planned{Hit: h}) }
	merged := &exec.Metrics{}
	merged.Shards = len(active)
	merged.ShardsPruned = pruned
	if len(active) > 0 {
		workers := resolveWorkers(cfg, len(active))
		ctx2, cancel := context.WithCancel(ctx)
		defer cancel()

		jobs := make(chan *Shard)
		var wg sync.WaitGroup
		var mu sync.Mutex
		var firstErr error
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for sh := range jobs {
					var m exec.Metrics
					hits, direct, err := searchShard(ctx2, sh, x, n, cfg, cut, &m)
					if direct {
						err = searchShardDirect(ctx2, sh, x, n, &m, offerHit)
					}
					for _, h := range hits {
						if !heap.Offer(h) {
							break
						}
					}
					mu.Lock()
					merged.Merge(&m)
					if err != nil && firstErr == nil && !errors.Is(err, context.Canceled) {
						firstErr = err
						cancel()
					}
					mu.Unlock()
				}
			}()
		}
		for _, sh := range active {
			select {
			case jobs <- sh:
			case <-ctx2.Done():
			}
		}
		close(jobs)
		wg.Wait()
		if firstErr != nil {
			return nil, firstErr
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	if cfg.Metrics != nil {
		cfg.Metrics.Merge(merged)
	}
	return convert(heap.Sorted(), conv), nil
}

// searchOne is Search over its one active shard, run inline on the
// caller's goroutine with the counters written straight into cfg.Metrics.
// A Database is a one-shard corpus, so every Database search takes this
// path. Either strategy's output is already the exact answer in (cost,
// doc, root) order and needs no gather heap.
func searchOne[T any](ctx context.Context, sh *Shard, pruned int, x *lang.Expanded, n int, bound func() cost.Cost, cfg Config, conv func(Hit, *kbest.Entry) T) ([]T, error) {
	m := cfg.Metrics
	if m != nil {
		m.Shards++
		m.ShardsPruned += pruned
	}
	hits, direct, err := searchShard(ctx, sh, x, n, cfg, bound, m)
	if err != nil {
		return nil, err
	}
	if !direct {
		return convert(hits, conv), nil
	}
	res, err := exec.Direct(ctx, sh.be.Tree(), sh.be, x, n, m)
	if err != nil {
		return nil, err
	}
	out := make([]T, 0, len(res))
	err = sh.offerAll(res, func(h Hit) bool {
		out = append(out, conv(h, nil))
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// convert maps ranked hits into the caller's element type.
func convert[T any](hits []planned, conv func(Hit, *kbest.Entry) T) []T {
	out := make([]T, len(hits))
	for i, h := range hits {
		out[i] = conv(h.Hit, h.plan)
	}
	return out
}

// startShard resolves one shard's starting strategy. direct reports a shard
// that runs the direct algorithm outright: forced Direct, or Auto with
// n <= 0. Every other shard starts schema-driven under budget (zero:
// none); only Auto sets one, the direct algorithm's price (plan.Decide).
func startShard(sh *Shard, x *lang.Expanded, n int, cfg Config, m *exec.Metrics) (direct bool, budget int) {
	if !cfg.Auto {
		return cfg.Direct, 0
	}
	d := plan.Decide(nil, sh.be, x, n)
	if m != nil {
		m.PlannerStrategy = d.Strategy.String()
		m.PlannerProbes += d.Probes
		m.Price += d.Price
	}
	switch {
	case d.Strategy == plan.Direct:
		return true, 0
	case cfg.budget != 0:
		return false, max(cfg.budget, 0)
	}
	// A zero price (no posting of any query label) still gets a budget:
	// zero would mean none.
	return false, max(d.Price, 1)
}

// searchShard runs one shard's part of a search for the best n (n <= 0:
// all) under the external cutoff bound (nil: none). When the shard runs
// schema-driven to the end it returns its hits in ascending (cost, doc,
// root) order. The engine writes them into a shard-local top n and stops
// at the first second-level query costlier than min(local n-th cost,
// bound), so they are a superset of the shard's part of the global answer:
// the global top n holds no more than n of the shard's hits, and under the
// (cost, doc, root) order those are the shard's own best n.
//
// The engine runs with N = 0 and only the cutoff stops it. An engine asked
// for n results stops at the second-level query delivering the n-th, and
// its emission order within an equal-cost tier follows its second-level
// queries, not the (cost, doc, root) order, so its own n-truncation could
// keep the wrong members of a tie set.
//
// direct reports that the caller must evaluate the shard with the direct
// algorithm instead: its start is Direct, or its schema run spent the Auto
// budget (exec.ErrBudget). A run that spent its budget has delivered
// nothing — its hits are dropped here — so no caller's output ever goes
// out of order, and Switched counts the fallback.
func searchShard(ctx context.Context, sh *Shard, x *lang.Expanded, n int, cfg Config, bound func() cost.Cost, m *exec.Metrics) (hits []planned, direct bool, err error) {
	direct, budget := startShard(sh, x, n, cfg, m)
	if direct {
		return nil, true, nil
	}
	local := newTopN[planned](n)
	cut := local.Bound
	if bound != nil {
		cut = func() cost.Cost { return min(local.Bound(), bound()) }
	}
	var emitted int
	if m != nil {
		emitted = m.ResultsEmitted
	}
	eng := exec.New(sh.be.Schema(), sh.be, exec.Config{Metrics: m, Bound: cut, Budget: budget})
	err = eng.Run(ctx, x, func(it exec.Item) bool {
		doc, ok := sh.docOf(it.Root)
		if !ok {
			return true
		}
		return local.Offer(planned{Hit{Doc: doc, Root: it.Root, Cost: it.Cost}, it.Plan})
	})
	if errors.Is(err, exec.ErrBudget) {
		if m != nil {
			m.Switched++
			m.ResultsEmitted = emitted
		}
		return nil, true, nil
	}
	if err != nil {
		return nil, false, err
	}
	return local.Sorted(), false, nil
}

// searchShardDirect evaluates one shard with the direct algorithm,
// delivering the shard's best n in ascending (cost, root) order through
// offer; offer returning false stops the delivery (every later result is
// at least as costly). The per-shard BestN is exact for the global merge:
// a shard's documents are preorder-contiguous, so its (cost, root) order
// equals the global (cost, doc, root) order restricted to the shard, and
// the global top n is contained in the union of per-shard top n's.
func searchShardDirect(ctx context.Context, sh *Shard, x *lang.Expanded, n int, m *exec.Metrics, offer func(Hit) bool) error {
	res, err := exec.Direct(ctx, sh.be.Tree(), sh.be, x, n, m)
	if err != nil {
		return err
	}
	return sh.offerAll(res, offer)
}

// offerAll attributes direct results of this shard to their documents and
// offers them in order until offer returns false.
func (s *Shard) offerAll(res []eval.Result, offer func(Hit) bool) error {
	for _, r := range res {
		doc, ok := s.docOf(r.Root)
		if !ok {
			return fmt.Errorf("corpus: result root %d outside every shard document", r.Root)
		}
		if !offer(Hit{Doc: doc, Root: r.Root, Cost: r.Cost}) {
			break
		}
	}
	return nil
}
