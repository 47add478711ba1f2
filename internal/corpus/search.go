package corpus

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"approxql/internal/backend"
	"approxql/internal/cost"
	"approxql/internal/exec"
	"approxql/internal/lang"
	"approxql/internal/plan"
)

// ranked ties the gather heap to the corpus's (cost, doc, root) total
// order: any element type that can surface the Hit it is ranked by. Hit
// qualifies trivially; ClusterHit embeds one and inherits the method.
type ranked interface{ rankKey() Hit }

func (h Hit) rankKey() Hit { return h }

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

func newTopN[T ranked](n int) *topn[T] { return &topn[T]{n: n} }

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
	sort.Slice(out, func(i, j int) bool { return less(out[i].rankKey(), out[j].rankKey()) })
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
// ascending (cost, doc, root). n <= 0 returns all approximate hits. The
// ranking is bit-identical across shard counts, strategies, and
// parallelism settings: the heap's total order makes gathering
// arrival-order independent, and each shard contributes a superset of its
// part of the global answer (schema-driven shards run unbounded under the
// cutoff; direct shards compute exact per-shard top-n, which within a
// shard coincides with the global order restricted to it).
func (c *Corpus) Search(ctx context.Context, x *lang.Expanded, n int, cfg Config) ([]Hit, error) {
	active, pruned := c.filterShards(x)
	heap := newTopN[Hit](n)
	merged := &exec.Metrics{}
	merged.Shards = len(active)
	merged.ShardsPruned = pruned
	if len(active) == 1 {
		// Fast path: one active shard needs no pool — run the engine
		// inline on the caller's goroutine, skipping the worker spawn and
		// job channel. This keeps the Database-as-one-shard-corpus
		// wrapper close to a plain single-database search; the heap's
		// Offer already stops the engine on strictly worse costs.
		var m exec.Metrics
		var err error
		if decideShard(active[0], x, n, cfg, &m) {
			err = searchShardDirect(ctx, active[0], x, n, &m, heap.Offer)
		} else {
			err = searchShardSchema(ctx, active[0], x, n, &m, heap)
		}
		merged.Merge(&m)
		finishPlanner(merged, cfg)
		if cfg.Metrics != nil {
			cfg.Metrics.Merge(merged)
		}
		if err != nil {
			return nil, err
		}
		return heap.Sorted(), nil
	}
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
					var err error
					if decideShard(sh, x, n, cfg, &m) {
						err = searchShardDirect(ctx2, sh, x, n, &m, heap.Offer)
					} else {
						err = searchShardSchema(ctx2, sh, x, n, &m, heap)
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
	finishPlanner(merged, cfg)
	if cfg.Metrics != nil {
		cfg.Metrics.Merge(merged)
	}
	return heap.Sorted(), nil
}

// decideShard reports whether one shard runs the direct strategy: the
// forced strategy from cfg, or — under Auto — the planner's pick from the
// shard's own schema and count-only index probes. Either strategy makes the
// shard contribute a superset of its part of the global answer, so mixing
// strategies across shards cannot change the merged ranking.
func decideShard(sh *Shard, x *lang.Expanded, n int, cfg Config, m *exec.Metrics) bool {
	if !cfg.Auto {
		return cfg.Direct
	}
	cs, _ := sh.be.(backend.CountSource)
	d := plan.Decide(sh.be.Schema(), cs, x, n)
	m.PlannerEstimate = d.Estimate
	m.PlannerProbes = d.Probes
	if d.Strategy == plan.Direct {
		m.PlannerDirect = 1
		return true
	}
	m.PlannerSchema = 1
	return false
}

// finishPlanner names the majority per-shard pick in the merged metrics of
// an Auto search.
func finishPlanner(merged *exec.Metrics, cfg Config) {
	if !cfg.Auto || merged.PlannerDirect+merged.PlannerSchema == 0 {
		return
	}
	if merged.PlannerDirect >= merged.PlannerSchema {
		merged.PlannerStrategy = plan.Direct.String()
	} else {
		merged.PlannerStrategy = plan.SchemaDriven.String()
	}
}

// searchShardSchema runs one shard's k-growing engine unbounded (N = 0)
// under the heap's cutoff. Unbounded matters for correctness at tie
// boundaries: an engine asked for n results stops at the second-level
// query delivering the n-th, which could truncate an equal-cost tie set
// another shard's hits would have pushed past n. Under the cutoff the
// engine still terminates as soon as planned costs cross the global n-th
// cost. N = 0 matters even for a sole shard: the engine's emission order
// within an equal-cost tier follows its second-level queries, not the
// corpus (cost, doc, root) order, so its own n-truncation could keep the
// wrong members of a tie set.
func searchShardSchema(ctx context.Context, sh *Shard, x *lang.Expanded, n int, m *exec.Metrics, heap *topn[Hit]) error {
	initialK := 0 // all hits wanted: the engine's own default
	if n > 0 {
		// Mirror the single-database default: plan roughly the requested
		// n up front so the first round can already saturate the heap.
		initialK = max(n, 8)
	}
	eng := exec.New(sh.be.Schema(), sh.be, exec.Config{
		N:        0,
		InitialK: initialK,
		Metrics:  m,
		Bound:    heap.Bound,
	})
	return eng.Run(ctx, x, func(it exec.Item) bool {
		doc, ok := sh.docOf(it.Root)
		if !ok {
			return true
		}
		return heap.Offer(Hit{Doc: doc, Root: it.Root, Cost: it.Cost})
	})
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
	for _, r := range res {
		doc, ok := sh.docOf(r.Root)
		if !ok {
			return fmt.Errorf("corpus: result root %d outside every shard document", r.Root)
		}
		if !offer(Hit{Doc: doc, Root: r.Root, Cost: r.Cost}) {
			break
		}
	}
	return nil
}
