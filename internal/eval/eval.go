package eval

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"approxql/internal/cost"
	"approxql/internal/index"
	"approxql/internal/lang"
	"approxql/internal/xmltree"
)

// Result is a root-cost pair (Definition 11): the root of an embedding group
// together with the lowest embedding cost among the group's embeddings that
// match at least one query leaf.
type Result struct {
	Root xmltree.NodeID
	Cost cost.Cost
}

// Stats counts work done by an evaluation, for the benchmark harness and the
// ablation experiments.
type Stats struct {
	Fetches     int // index posting fetches (cache misses only)
	ListOps     int // join/outerjoin/intersect/union/merge invocations
	EntriesIn   int // total entries consumed by list operations
	MemoHits    int // evaluations answered from the DP memo
	Evaluations int // evaluations actually performed

	ArenaChunks   int // entry-arena chunks allocated
	ArenaEntries  int // entries placed in arena chunks
	ScratchHits   int // scratch sets served from the pool
	ScratchMisses int // scratch sets freshly allocated
	ParallelForks int // subtree evaluations forked to another goroutine
}

// add accumulates o into s field by field.
func (s *Stats) add(o Stats) {
	s.Fetches += o.Fetches
	s.ListOps += o.ListOps
	s.EntriesIn += o.EntriesIn
	s.MemoHits += o.MemoHits
	s.Evaluations += o.Evaluations
	s.ArenaChunks += o.ArenaChunks
	s.ArenaEntries += o.ArenaEntries
	s.ScratchHits += o.ScratchHits
	s.ScratchMisses += o.ScratchMisses
	s.ParallelForks += o.ParallelForks
}

// Evaluator runs algorithm primary (Section 6.5) against a data tree. An
// Evaluator caches fetched postings and memoizes subquery evaluations (the
// "dynamic programming" of the full algorithm); it is cheap to create, so
// use one per query unless the queries share an expanded representation.
//
// Retained lists are carved from per-context entry arenas and operation
// scratch comes from a process-wide pool, so an evaluation performs a small
// constant number of heap allocations regardless of query and list sizes;
// Stats reports the arena and scratch traffic. The evaluator is safe for
// concurrent evaluations and, with Parallelism > 1, evaluates independent
// subtrees of one query concurrently itself.
type Evaluator struct {
	tree *xmltree.Tree
	src  index.Source

	// DisableMemo turns off the dynamic programming for the ablation
	// benchmarks. Memoized lists are also what makes intra-query
	// parallelism effective; with the memo disabled, forked evaluations
	// recompute shared subtrees.
	DisableMemo bool

	// Parallelism bounds the number of goroutines evaluating independent
	// expanded-query subtrees (the two children of an and/or node)
	// concurrently.
	// Zero or one evaluates serially; results are byte-identical at any
	// setting because the combine order is fixed. Values above
	// runtime.GOMAXPROCS(0) are clamped: the evaluation is CPU-bound, so
	// extra workers on a saturated scheduler only add handoff overhead.
	// Set it before the first evaluation.
	Parallelism int

	// ForceParallelism disables the GOMAXPROCS clamp on Parallelism, so
	// tests can exercise the parallel paths (and their determinism) on
	// single-CPU machines.
	ForceParallelism bool

	mu         sync.Mutex
	stats      Stats
	fetchCache map[fetchKey]*memoLot
	innerCache map[*lang.XNode]*memoLot
	evalCache  map[evalKey]*memoLot
	lotSlab    []memoLot // chunked backing store for memo slots
	ctxFree    []*evalCtx
	sem        chan struct{} // fork tokens; created at first parallel use
}

// newLot carves a memo slot from the slab, chunking so that the dozens of
// slots of a query cost a few allocations. Callers hold ev.mu; pointers into
// retired chunks stay valid.
func (ev *Evaluator) newLot() *memoLot {
	if len(ev.lotSlab) == cap(ev.lotSlab) {
		ev.lotSlab = make([]memoLot, 0, 64)
	}
	ev.lotSlab = append(ev.lotSlab, memoLot{})
	return &ev.lotSlab[len(ev.lotSlab)-1]
}

type fetchKey struct {
	label string
	kind  cost.Kind
}

type evalKey struct {
	node *lang.XNode
	list *List
}

// memoLot is a single-flight memo slot: the first evaluation reaching a key
// computes under the slot's lock while later ones (concurrent or not) wait
// and share the result. This both deduplicates concurrent work and keeps
// list identity canonical, which evalKey relies on.
type memoLot struct {
	mu   sync.Mutex
	done bool
	list *List
	post []xmltree.NodeID // the posting, in a fetchCache lot
	err  error
}

// do runs compute, which fills the lot's value and returns its error,
// unless an earlier call completed the lot, and returns the lot's error.
// The value may be read once do returns nil. A computation that a stopped
// context cut short is not kept: the lot stays open, and the next caller,
// under its own context, computes afresh.
func (lot *memoLot) do(compute func() error) error {
	lot.mu.Lock()
	defer lot.mu.Unlock()
	if !lot.done {
		err := compute()
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		lot.err, lot.done = err, true
	}
	return lot.err
}

// evalCtx is the goroutine-private state of one evaluation: the caller's
// context, checked before each step, the entry arena retained lists are
// built into, the pooled operation scratch, and local statistics merged
// into the evaluator when the context is released.
type evalCtx struct {
	cx    context.Context
	arena entryArena
	sc    *opScratch
	stats Stats

	// Arena totals already merged into Evaluator.stats, so repeated
	// releases of a reused context report deltas.
	reportedChunks     int
	reportedEntries    int
	reportedPoolHits   int
	reportedPoolMisses int
}

// New returns an evaluator over the given data tree and posting source.
func New(tree *xmltree.Tree, src index.Source) *Evaluator {
	// The caches are pre-sized for a typical expanded query (a few dozen
	// labels and subquery keys), so they usually never rehash.
	return &Evaluator{
		tree:       tree,
		src:        src,
		fetchCache: make(map[fetchKey]*memoLot, 32),
		innerCache: make(map[*lang.XNode]*memoLot, 32),
		evalCache:  make(map[evalKey]*memoLot, 64),
	}
}

// Release returns the evaluator's arena chunks to a process-wide pool, where
// the next evaluator's arena picks them up instead of allocating (and the
// runtime zeroing) fresh ones. Calling it is optional — a dropped evaluator
// is collected by the GC as usual — but on a fresh-evaluator-per-query
// pattern it removes the dominant allocation cost. After Release the
// evaluator and every *List obtained from it are invalid; Result slices from
// All/BestN are copies and stay valid.
func (ev *Evaluator) Release() {
	ev.mu.Lock()
	defer ev.mu.Unlock()
	for _, ctx := range ev.ctxFree {
		ctx.arena.release()
		*ctx = evalCtx{}
	}
	ev.ctxFree = nil
	ev.fetchCache, ev.innerCache, ev.evalCache = nil, nil, nil
	ev.lotSlab = nil
}

// Stats returns the operation counters accumulated so far.
func (ev *Evaluator) Stats() Stats {
	ev.mu.Lock()
	defer ev.mu.Unlock()
	return ev.stats
}

// getCtx reuses a released evaluation context (keeping its arena warm) or
// creates one, and attaches cx and pooled scratch.
func (ev *Evaluator) getCtx(cx context.Context) *evalCtx {
	ev.mu.Lock()
	var ctx *evalCtx
	if n := len(ev.ctxFree); n > 0 {
		ctx = ev.ctxFree[n-1]
		ev.ctxFree = ev.ctxFree[:n-1]
	}
	ev.mu.Unlock()
	if ctx == nil {
		ctx = &evalCtx{}
	}
	ctx.cx = cx
	sc, hit := acquireScratch()
	ctx.sc = sc
	if hit {
		ctx.stats.ScratchHits++
	} else {
		ctx.stats.ScratchMisses++
	}
	return ctx
}

// putCtx releases the scratch back to the pool, folds the context's local
// statistics into the evaluator, and shelves the context (with its arena)
// for reuse.
func (ev *Evaluator) putCtx(ctx *evalCtx) {
	releaseScratch(ctx.sc)
	ctx.sc = nil
	ctx.cx = nil
	ctx.stats.ArenaChunks += ctx.arena.chunks - ctx.reportedChunks
	ctx.stats.ArenaEntries += ctx.arena.entries - ctx.reportedEntries
	ctx.stats.ScratchHits += ctx.arena.poolHits - ctx.reportedPoolHits
	ctx.stats.ScratchMisses += ctx.arena.poolMisses - ctx.reportedPoolMisses
	ctx.reportedChunks = ctx.arena.chunks
	ctx.reportedEntries = ctx.arena.entries
	ctx.reportedPoolHits = ctx.arena.poolHits
	ctx.reportedPoolMisses = ctx.arena.poolMisses
	ev.mu.Lock()
	ev.stats.add(ctx.stats)
	ctx.stats = Stats{}
	ev.ctxFree = append(ev.ctxFree, ctx)
	ev.mu.Unlock()
}

// Primary finds the images of all approximate embeddings of the expanded
// query and returns the list of embedding roots with their costs (Section
// 6.5). The returned list holds an entry for every result; EmbCost is the
// cheapest embedding, LeafCost the cheapest embedding with at least one
// query-leaf match, and entries with LeafCost ∞ are not results. A match of
// the root's labels that the list does not hold costs its default (see
// List) with LeafCost ∞, so it is never a result either.
func (ev *Evaluator) Primary(x *lang.Expanded) (*List, error) {
	return ev.primary(context.Background(), x)
}

// primary is Primary under cx: it returns cx's error once cx is done.
func (ev *Evaluator) primary(cx context.Context, x *lang.Expanded) (*List, error) {
	root := x.Root
	if root.Rep != lang.RepNode {
		return nil, fmt.Errorf("eval: expanded root has type %v, want node", root.Rep)
	}
	par := ev.Parallelism
	if !ev.ForceParallelism {
		par = min(par, runtime.GOMAXPROCS(0))
	}
	if par > 1 && ev.sem == nil {
		// The evaluating goroutine is a worker too, so par-1 fork
		// tokens bound the total at par.
		ev.sem = make(chan struct{}, par-1)
	}
	ctx := ev.getCtx(cx)
	defer ev.putCtx(ctx)
	return ev.inner(ctx, root)
}

// All solves the approximate query-matching problem (Definition 11): every
// root-cost pair, in document order.
func (ev *Evaluator) All(x *lang.Expanded) ([]Result, error) {
	return ev.all(context.Background(), x)
}

// all is All under cx.
func (ev *Evaluator) all(cx context.Context, x *lang.Expanded) ([]Result, error) {
	l, err := ev.primary(cx, x)
	if err != nil {
		return nil, err
	}
	out := make([]Result, 0, l.Len())
	for _, e := range l.entries {
		if cost.IsInf(e.LeafCost) {
			continue // no embedding matches any query leaf (Section 6.5)
		}
		out = append(out, Result{Root: e.Pre, Cost: e.LeafCost})
	}
	return out, nil
}

// BestN solves the best-n-pairs problem (Definition 12): the n root-cost
// pairs with the lowest costs, sorted by (cost, preorder). n <= 0 returns
// all results sorted. When n is much smaller than the result count, the
// final sort runs as a bounded heap selection in O(R log n) instead of
// O(R log R) — the "prune after the nth entry" step of the paper's first
// algorithm.
func (ev *Evaluator) BestN(x *lang.Expanded, n int) ([]Result, error) {
	return ev.BestNContext(context.Background(), x, n)
}

// BestNContext is BestN under ctx: every evaluation step first checks ctx,
// so once ctx is done the evaluation stops and returns ctx's error. Steps
// it cut short are not memoized; the evaluator stays usable.
func (ev *Evaluator) BestNContext(ctx context.Context, x *lang.Expanded, n int) ([]Result, error) {
	res, err := ev.all(ctx, x)
	if err != nil {
		return nil, err
	}
	if n > 0 && n < len(res)/4 {
		return selectBestN(res, n), nil
	}
	SortResults(res)
	if n > 0 && n < len(res) {
		res = res[:n]
	}
	return res, nil
}

// selectBestN returns the n smallest results in sorted order using a
// bounded max-heap over the candidates. The heap is hand-rolled on the
// concrete element type: container/heap moves elements through interface
// values, which boxes one allocation per operation.
func selectBestN(res []Result, n int) []Result {
	h := make(resultMaxHeap, 0, n)
	for _, r := range res {
		if len(h) < n {
			h = append(h, r)
			h.siftUp(len(h) - 1)
			continue
		}
		if resultLess(r, h[0]) {
			h[0] = r
			h.siftDown(0)
		}
	}
	for end := len(h) - 1; end > 0; end-- {
		h[0], h[end] = h[end], h[0]
		h[:end].siftDown(0)
	}
	return h
}

func resultLess(a, b Result) bool {
	if a.Cost != b.Cost {
		return a.Cost < b.Cost
	}
	return a.Root < b.Root
}

// resultMaxHeap keeps the n smallest results; the root is the largest kept.
type resultMaxHeap []Result

func (h resultMaxHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !resultLess(h[parent], h[i]) {
			return
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

func (h resultMaxHeap) siftDown(i int) {
	for {
		largest := i
		if l := 2*i + 1; l < len(h) && resultLess(h[largest], h[l]) {
			largest = l
		}
		if r := 2*i + 2; r < len(h) && resultLess(h[largest], h[r]) {
			largest = r
		}
		if largest == i {
			return
		}
		h[i], h[largest] = h[largest], h[i]
		i = largest
	}
}

// SortResults orders root-cost pairs by ascending cost, breaking ties by
// preorder number for determinism.
func SortResults(res []Result) {
	slices.SortFunc(res, func(a, b Result) int {
		if a.Cost != b.Cost {
			return cmp.Compare(a.Cost, b.Cost)
		}
		return cmp.Compare(a.Root, b.Root)
	})
}

// posting returns the index posting of the given label (Section 6.4,
// function fetch), cached per evaluator so that a label shared by several
// query nodes or renamings is read once. Postings are immutable.
func (ev *Evaluator) posting(ctx *evalCtx, label string, kind cost.Kind) ([]xmltree.NodeID, error) {
	key := fetchKey{label, kind}
	ev.mu.Lock()
	lot, ok := ev.fetchCache[key]
	if !ok {
		lot = ev.newLot()
		ev.fetchCache[key] = lot
	}
	ev.mu.Unlock()
	err := lot.do(func() (err error) {
		if kind == cost.Text {
			lot.post, err = ev.src.Text(label)
		} else {
			lot.post, err = ev.src.Struct(label)
		}
		if err == nil {
			ctx.stats.Fetches++
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return lot.post, nil
}

// inner computes the ancestor-independent part of a RepNode or RepLeaf:
// the matches of the label and its renamings, annotated with the embedding
// costs of the node's content. This is the memoized quantity of the paper's
// dynamic programming: it is evaluated once regardless of how many ancestor
// contexts reference the node.
func (ev *Evaluator) inner(ctx *evalCtx, u *lang.XNode) (*List, error) {
	if ev.DisableMemo {
		ctx.stats.Evaluations++
		return ev.computeInner(ctx, u)
	}
	ev.mu.Lock()
	lot, ok := ev.innerCache[u]
	if !ok {
		lot = ev.newLot()
		ev.innerCache[u] = lot
	}
	ev.mu.Unlock()
	if ok {
		ctx.stats.MemoHits++
	} else {
		ctx.stats.Evaluations++
	}
	if err := lot.do(func() (err error) { lot.list, err = ev.computeInner(ctx, u); return err }); err != nil {
		return nil, err
	}
	return lot.list, nil
}

func (ev *Evaluator) computeInner(ctx *evalCtx, u *lang.XNode) (*List, error) {
	if err := ctx.cx.Err(); err != nil {
		return nil, err
	}
	switch u.Rep {
	case lang.RepLeaf:
		// Leaf matches have embedding cost 0 plus the renaming charge and
		// are by definition query-leaf matches: the leaf rule.
		return ev.matches(ctx, u, true)
	case lang.RepNode:
		if u.Child == nil {
			// A bare root selector: its matches double as leaf matches,
			// exactly the leaf rule.
			return ev.matches(ctx, u, true)
		}
		return ev.innerNode(ctx, u)
	}
	return nil, fmt.Errorf("eval: inner called on %v node", u.Rep)
}

// innerNode evaluates a RepNode with content: the matches of the label and
// its renamings, each annotated with the cost of embedding the content below
// it plus its renaming charge. All variants are merged into one list lv, the
// content is evaluated once against lv, and the charges are added to the
// result in one pass. That equals evaluating the content per variant and
// merging the results, because every list operation is per ancestor (join,
// outerjoin) or pointwise by Pre (intersect, union): the content's result
// restricted to one variant's matches is its result against that variant,
// and it is a Pre-subsequence of lv. No operation reads the ancestor list's
// own costs — joinCore resets them — so lv carries each entry's renaming
// charge in EmbCost for the charge pass.
//
// The content's result is sparse: the charge pass touches its entries
// only, and the inner list keeps lv as its base, so a match of lv the
// result does not hold costs the result's default plus its charge.
func (ev *Evaluator) innerNode(ctx *evalCtx, u *lang.XNode) (*List, error) {
	lv, err := ev.matches(ctx, u, false)
	if err != nil {
		return nil, err
	}
	// computeEval, not eval: lv is private to u, so nothing else evaluates
	// against it, and the fresh result is not shared until it is returned,
	// so the charges may go into it in place.
	l, err := ev.computeEval(ctx, u.Child, lv)
	if err != nil {
		return nil, err
	}
	if len(u.Renamings) > 0 {
		addCharges(l.entries, lv.entries)
	}
	if !cost.IsInf(l.dflt) {
		l.base = lv.entries
	}
	return l, nil
}

// matches fetches the postings of u's label (charge 0) and of each of its
// renamings and merges them into one list, applying the leaf rule
// (LeafCost = EmbCost) if leaf.
func (ev *Evaluator) matches(ctx *evalCtx, u *lang.XNode, leaf bool) (*List, error) {
	vs := ctx.sc.variants[:0]
	n := 0
	for k := -1; k < len(u.Renamings); k++ {
		label, charge := u.Label, cost.Cost(0)
		if k >= 0 {
			label, charge = u.Renamings[k].To, u.Renamings[k].Cost
		}
		post, err := ev.posting(ctx, label, u.Kind)
		if err != nil {
			return nil, err
		}
		if len(post) > 0 {
			vs = append(vs, variant{post, charge})
			n += len(post)
		}
	}
	ctx.sc.variants = vs
	if len(u.Renamings) > 0 {
		ctx.stats.ListOps++
		ctx.stats.EntriesIn += n
	}
	dst := ctx.arena.alloc(n)
	return ctx.arena.commitList(appendVariants(dst, ev.tree, vs, leaf), cost.Inf), nil
}

// eval is algorithm primary (Figure 4) restructured around a uniform edge
// cost: primary(u, cEdge, lA) of the paper equals bump(eval(u, lA), cEdge)
// because every case adds cEdge to each produced entry. Results are memoized
// on (node, ancestor-list identity); inner returns canonical lists, so
// repeated evaluations of shared subtrees (deletion bridges) hit the memo.
func (ev *Evaluator) eval(ctx *evalCtx, u *lang.XNode, lA *List) (*List, error) {
	if ev.DisableMemo {
		return ev.computeEval(ctx, u, lA)
	}
	key := evalKey{u, lA}
	ev.mu.Lock()
	lot, ok := ev.evalCache[key]
	if !ok {
		lot = ev.newLot()
		ev.evalCache[key] = lot
	}
	ev.mu.Unlock()
	if ok {
		ctx.stats.MemoHits++
	}
	if err := lot.do(func() (err error) { lot.list, err = ev.computeEval(ctx, u, lA); return err }); err != nil {
		return nil, err
	}
	return lot.list, nil
}

func (ev *Evaluator) computeEval(ctx *evalCtx, u *lang.XNode, lA *List) (*List, error) {
	if err := ctx.cx.Err(); err != nil {
		return nil, err
	}
	switch u.Rep {
	case lang.RepLeaf, lang.RepNode:
		ld, err := ev.inner(ctx, u)
		if err != nil {
			return nil, err
		}
		ctx.stats.ListOps++
		ctx.stats.EntriesIn += lA.Len() + ld.Len()
		sc := &ctx.sc.join
		dst := ctx.arena.alloc(joinCore(ev.tree, lA.entries, ld, sc))
		dflt := cost.Inf
		if u.Rep == lang.RepLeaf {
			// Outerjoin: an ancestor without a leaf match costs the
			// deletion, and holds no entry.
			dst, dflt = emitOuterjoin(dst, sc, 0, u.DelCost)
		} else {
			dst = emitJoin(dst, sc, 0)
		}
		return ctx.arena.commitList(dst, dflt), nil
	case lang.RepAnd:
		ll, lr, err := ev.evalPair(ctx, u.Left, u.Right, lA)
		if err != nil {
			return nil, err
		}
		ctx.stats.ListOps++
		ctx.stats.EntriesIn += ll.Len() + lr.Len()
		dst := ctx.arena.alloc(intersectBound(ll.Len(), lr.Len(), ll.dflt, lr.dflt))
		dst, dflt := appendIntersect(dst, ll.entries, lr.entries, ll.dflt, lr.dflt, 0)
		return ctx.arena.commitList(dst, dflt), nil
	case lang.RepOr:
		ll, lr, err := ev.evalPair(ctx, u.Left, u.Right, lA)
		if err != nil {
			return nil, err
		}
		// The or-branch's edge charge (bump of the paper) folds into the
		// union as a per-side cost.
		ctx.stats.ListOps++
		ctx.stats.EntriesIn += ll.Len() + lr.Len()
		dst := ctx.arena.alloc(ll.Len() + lr.Len())
		dst, dflt := appendUnion(dst, ll.entries, lr.entries, ll.dflt, lr.dflt, 0, u.EdgeCost)
		return ctx.arena.commitList(dst, dflt), nil
	}
	return nil, fmt.Errorf("eval: unknown representation type %v", u.Rep)
}

// forkMinEntries is the smallest ancestor list worth forking a sibling
// subtree for: below it, the goroutine handoff and context churn cost more
// than one pass over the list. Deletion bridges in particular share their
// content evaluation through the memo, so only the joins against lA remain
// parallel work there. A variable so equivalence tests can lower it and
// drive the fork paths on small trees.
var forkMinEntries = 4096

// evalPair evaluates two sibling subtrees against the same ancestor list,
// forking the right one to another goroutine when a fork token is free.
// Forks never block on a token (try-acquire), so memo waits are the only
// cross-goroutine waits and they follow the acyclic expanded DAG — no
// deadlock. The combine order is the caller's, fixed, so results do not
// depend on scheduling.
func (ev *Evaluator) evalPair(ctx *evalCtx, uL, uR *lang.XNode, lA *List) (*List, *List, error) {
	if ev.sem != nil && lA.Len() >= forkMinEntries {
		select {
		case ev.sem <- struct{}{}:
			ctx.stats.ParallelForks++
			type res struct {
				list *List
				err  error
			}
			ch := make(chan res, 1)
			go func() {
				defer func() { <-ev.sem }()
				ctx2 := ev.getCtx(ctx.cx)
				list, err := ev.eval(ctx2, uR, lA)
				ev.putCtx(ctx2)
				ch <- res{list, err}
			}()
			ll, errL := ev.eval(ctx, uL, lA)
			r := <-ch
			if errL != nil {
				return nil, nil, errL
			}
			if r.err != nil {
				return nil, nil, r.err
			}
			return ll, r.list, nil
		default:
		}
	}
	ll, err := ev.eval(ctx, uL, lA)
	if err != nil {
		return nil, nil, err
	}
	lr, err := ev.eval(ctx, uR, lA)
	if err != nil {
		return nil, nil, err
	}
	return ll, lr, nil
}
