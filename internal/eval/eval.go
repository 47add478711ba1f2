package eval

import (
	"cmp"
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
// Evaluator caches fetched lists and memoizes subquery evaluations (the
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
	// expanded-query subtrees (children of and/or nodes) concurrently.
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
// computes under the slot's once while later ones (concurrent or not) wait
// and share the result. This both deduplicates concurrent work and keeps
// list identity canonical, which evalKey relies on.
type memoLot struct {
	once sync.Once
	list *List
	err  error
}

// evalCtx is the goroutine-private state of one evaluation: the entry arena
// retained lists are built into, the pooled operation scratch, and local
// statistics merged into the evaluator when the context is released.
type evalCtx struct {
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
// creates one, and attaches pooled scratch.
func (ev *Evaluator) getCtx() *evalCtx {
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
// 6.5). The returned list contains one entry per result; EmbCost is the
// cheapest embedding, LeafCost the cheapest embedding with at least one
// query-leaf match.
func (ev *Evaluator) Primary(x *lang.Expanded) (*List, error) {
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
	ctx := ev.getCtx()
	defer ev.putCtx(ctx)
	return ev.inner(ctx, root)
}

// All solves the approximate query-matching problem (Definition 11): every
// root-cost pair, in document order.
func (ev *Evaluator) All(x *lang.Expanded) ([]Result, error) {
	l, err := ev.Primary(x)
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
	res, err := ev.All(x)
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

// fetch initializes a list from the index posting of the given label
// (Section 6.4, function fetch). Lists are cached per label and immutable.
func (ev *Evaluator) fetch(ctx *evalCtx, label string, kind cost.Kind) (*List, error) {
	key := fetchKey{label, kind}
	ev.mu.Lock()
	lot, ok := ev.fetchCache[key]
	if !ok {
		lot = ev.newLot()
		ev.fetchCache[key] = lot
	}
	ev.mu.Unlock()
	lot.once.Do(func() { lot.list, lot.err = ev.computeFetch(ctx, label, kind) })
	return lot.list, lot.err
}

func (ev *Evaluator) computeFetch(ctx *evalCtx, label string, kind cost.Kind) (*List, error) {
	var post []xmltree.NodeID
	var err error
	if kind == cost.Text {
		post, err = ev.src.Text(label)
	} else {
		post, err = ev.src.Struct(label)
	}
	if err != nil {
		return nil, err
	}
	ctx.stats.Fetches++
	dst := ctx.arena.alloc(len(post))
	for _, u := range post {
		dst = append(dst, Entry{Pre: u, Bound: ev.tree.Bound(u), EmbCost: 0, LeafCost: cost.Inf})
	}
	return ctx.arena.commitList(dst), nil
}

// inner computes the ancestor-independent part of a RepNode or RepLeaf:
// the merged lists of the label and its renamings, annotated with the
// embedding costs of the node's content. This is the memoized quantity of
// the paper's dynamic programming: it is evaluated once regardless of how
// many ancestor contexts reference the node.
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
	lot.once.Do(func() { lot.list, lot.err = ev.computeInner(ctx, u) })
	return lot.list, lot.err
}

func (ev *Evaluator) computeInner(ctx *evalCtx, u *lang.XNode) (*List, error) {
	switch u.Rep {
	case lang.RepLeaf:
		return ev.innerLeaf(ctx, u)
	case lang.RepNode:
		if u.Child == nil {
			// A bare root selector: its matches double as leaf matches,
			// exactly the leaf rule.
			return ev.innerLeaf(ctx, u)
		}
		return ev.innerNode(ctx, u)
	}
	return nil, fmt.Errorf("eval: inner called on %v node", u.Rep)
}

// innerLeaf evaluates a RepLeaf (or a bare RepNode root): the leaf-marked
// matches of the label merged with its leaf-marked renamings. Leaf matches
// have embedding cost 0 (plus renaming) and are by definition query-leaf
// matches, so LeafCost equals EmbCost; appendMerge applies that rule to the
// renamed side in the same pass.
func (ev *Evaluator) innerLeaf(ctx *evalCtx, u *lang.XNode) (*List, error) {
	base, err := ev.fetch(ctx, u.Label, u.Kind)
	if err != nil {
		return nil, err
	}
	if len(u.Renamings) == 0 {
		dst := ctx.arena.alloc(base.Len())
		return ctx.arena.commitList(appendMarkLeaf(dst, base.entries)), nil
	}
	// Fetch every variant before the merge chain starts: fetching draws on
	// the shared scratch and arena, the chain must not interleave with it.
	sc := ctx.sc
	start := len(sc.lists)
	defer func() { sc.lists = sc.lists[:start] }()
	for _, r := range u.Renamings {
		lt, err := ev.fetch(ctx, r.To, u.Kind)
		if err != nil {
			return nil, err
		}
		sc.lists = append(sc.lists, lt)
	}
	return ev.mergeChain(ctx, base.entries, true, u.Renamings, start, true)
}

// innerNode evaluates a RepNode with content: each label variant's matches
// annotated with the cost of embedding the node's content below them,
// merged over the renamings.
func (ev *Evaluator) innerNode(ctx *evalCtx, u *lang.XNode) (*List, error) {
	first, err := ev.nodeVariant(ctx, u, u.Label)
	if err != nil {
		return nil, err
	}
	if len(u.Renamings) == 0 {
		return first, nil
	}
	sc := ctx.sc
	start := len(sc.lists)
	defer func() { sc.lists = sc.lists[:start] }()
	if ev.sem != nil {
		if err := ev.parallelVariants(ctx, u); err != nil {
			return nil, err
		}
	} else {
		for _, r := range u.Renamings {
			lt, err := ev.nodeVariant(ctx, u, r.To)
			if err != nil {
				return nil, err
			}
			sc.lists = append(sc.lists, lt)
		}
	}
	return ev.mergeChain(ctx, first.entries, false, u.Renamings, start, false)
}

// parallelVariants evaluates the renaming variants of a RepNode
// concurrently, appending their lists to ctx.sc.lists in renaming order.
// Each variant evaluates the node's content against a different ancestor
// list, so — unlike the two sides of a deletion bridge, which share their
// content evaluation through the memo — variants are genuinely independent
// work, the main parallelism of renaming-heavy queries.
func (ev *Evaluator) parallelVariants(ctx *evalCtx, u *lang.XNode) error {
	n := len(u.Renamings)
	lists := make([]*List, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, r := range u.Renamings {
		forked := false
		if i < n-1 { // evaluate the last variant on this goroutine
			select {
			case ev.sem <- struct{}{}:
				ctx.stats.ParallelForks++
				wg.Add(1)
				go func(i int, label string) {
					defer wg.Done()
					defer func() { <-ev.sem }()
					ctx2 := ev.getCtx()
					lists[i], errs[i] = ev.nodeVariant(ctx2, u, label)
					ev.putCtx(ctx2)
				}(i, r.To)
				forked = true
			default:
			}
		}
		if !forked {
			lists[i], errs[i] = ev.nodeVariant(ctx, u, r.To)
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	ctx.sc.lists = append(ctx.sc.lists, lists...)
	return nil
}

// mergeChain folds the pre-collected variant lists sc.lists[start:] into the
// base with appendMerge, ping-ponging between the two scratch buffers for
// intermediates; only the final merge writes into the arena. baseMark
// applies the leaf rule to the base (a raw fetch list of a leaf or bare
// root). In parallel mode the fold runs as a reduction tree instead — the
// pointwise-minimum algebra makes any fold order bit-identical.
func (ev *Evaluator) mergeChain(ctx *evalCtx, base []Entry, baseMark bool, renamings []cost.Renaming, start int, markRight bool) (*List, error) {
	sc := ctx.sc
	if ev.sem != nil && len(renamings) >= 2 {
		total := len(base)
		for k := range renamings {
			total += sc.lists[start+k].Len()
		}
		if total >= forkMinEntries {
			return ev.mergeReduce(ctx, base, baseMark, renamings, start, markRight)
		}
	}
	acc := base
	if baseMark {
		acc = appendMarkLeaf(sc.bufA[:0], base)
		sc.bufA = acc
	}
	last := len(renamings) - 1
	for k, r := range renamings {
		lt := sc.lists[start+k]
		ctx.stats.ListOps++
		ctx.stats.EntriesIn += len(acc) + lt.Len()
		if k == last {
			dst := ctx.arena.alloc(len(acc) + lt.Len())
			dst = appendMerge(dst, acc, lt.entries, r.Cost, markRight)
			return ctx.arena.commitList(dst), nil
		}
		out := appendMerge(sc.bufB[:0], acc, lt.entries, r.Cost, markRight)
		sc.bufB = out
		sc.bufA, sc.bufB = sc.bufB, sc.bufA
		acc = out
	}
	// Unreachable: callers only enter with at least one renaming.
	return &List{entries: acc}, nil
}

// chargedList is a reduction operand: a list whose costs still owe a charge
// (the renaming cost) and possibly the leaf rule. pooled marks intermediate
// buffers to return to the pool once consumed.
type chargedList struct {
	entries []Entry
	charge  cost.Cost
	mark    bool
	pooled  bool
}

// mergeReduce folds base and the variant lists as a parallel reduction tree:
// each round pairs adjacent operands and min-unions them concurrently under
// the fork tokens. Charges and leaf marks are applied exactly once, when an
// operand first enters a union, so the result is bit-identical to the serial
// left fold. Intermediate rounds write freshly allocated buffers (they are
// garbage right after the next round — keeping them out of the arena keeps
// the arena leak-free); only the final union lands in the arena.
func (ev *Evaluator) mergeReduce(ctx *evalCtx, base []Entry, baseMark bool, renamings []cost.Renaming, start int, markRight bool) (*List, error) {
	sc := ctx.sc
	cur := make([]chargedList, 0, 1+len(renamings))
	cur = append(cur, chargedList{base, 0, baseMark, false})
	for k, r := range renamings {
		cur = append(cur, chargedList{sc.lists[start+k].entries, r.Cost, markRight, false})
	}
	for len(cur) > 1 {
		pairs := len(cur) / 2
		final := len(cur) == 2
		results := make([][]Entry, pairs)
		var wg sync.WaitGroup
		for p := 0; p < pairs; p++ {
			l, r := cur[2*p], cur[2*p+1]
			ctx.stats.ListOps++
			ctx.stats.EntriesIn += len(l.entries) + len(r.entries)
			var dst []Entry
			if final {
				dst = ctx.arena.alloc(len(l.entries) + len(r.entries))
			} else {
				var hit bool
				dst, hit = getEntryBuf(len(l.entries) + len(r.entries))
				if hit {
					ctx.stats.ScratchHits++
				} else {
					ctx.stats.ScratchMisses++
				}
			}
			forked := false
			if p < pairs-1 { // the last pair runs on this goroutine
				select {
				case ev.sem <- struct{}{}:
					ctx.stats.ParallelForks++
					wg.Add(1)
					go func(p int, l, r chargedList, dst []Entry) {
						defer wg.Done()
						defer func() { <-ev.sem }()
						results[p] = appendMinUnion(dst, l.entries, r.entries, l.charge, r.charge, l.mark, r.mark)
					}(p, l, r, dst)
					forked = true
				default:
				}
			}
			if !forked {
				results[p] = appendMinUnion(dst, l.entries, r.entries, l.charge, r.charge, l.mark, r.mark)
			}
		}
		wg.Wait()
		next := make([]chargedList, 0, (len(cur)+1)/2)
		for p := 0; p < pairs; p++ {
			// The pair's operands are fully folded into the result;
			// recycle consumed intermediates.
			for _, op := range cur[2*p : 2*p+2] {
				if op.pooled {
					putEntryBuf(op.entries)
				}
			}
			next = append(next, chargedList{results[p], 0, false, !final})
		}
		if len(cur)%2 == 1 {
			next = append(next, cur[len(cur)-1])
		}
		cur = next
	}
	return ctx.arena.commitList(cur[0].entries), nil
}

// nodeVariant evaluates one label variant of a RepNode with content: the
// matches of the label annotated with the cost of embedding the node's
// content below each.
func (ev *Evaluator) nodeVariant(ctx *evalCtx, u *lang.XNode, label string) (*List, error) {
	ld, err := ev.fetch(ctx, label, u.Kind)
	if err != nil {
		return nil, err
	}
	return ev.eval(ctx, u.Child, ld)
}

// eval is algorithm primary (Figure 4) restructured around a uniform edge
// cost: primary(u, cEdge, lA) of the paper equals bump(eval(u, lA), cEdge)
// because every case adds cEdge to each produced entry. Results are memoized
// on (node, ancestor-list identity); fetch and inner return canonical lists,
// so repeated evaluations of shared subtrees (deletion bridges) hit the memo.
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
	lot.once.Do(func() { lot.list, lot.err = ev.computeEval(ctx, u, lA) })
	return lot.list, lot.err
}

func (ev *Evaluator) computeEval(ctx *evalCtx, u *lang.XNode, lA *List) (*List, error) {
	switch u.Rep {
	case lang.RepLeaf:
		ld, err := ev.inner(ctx, u)
		if err != nil {
			return nil, err
		}
		ctx.stats.ListOps++
		ctx.stats.EntriesIn += lA.Len() + ld.Len()
		dst := ctx.arena.alloc(lA.Len())
		dst = appendOuterjoin(dst, lA.entries, ld.entries, 0, u.DelCost, ev.tree, &ctx.sc.join)
		return ctx.arena.commitList(dst), nil
	case lang.RepNode:
		ld, err := ev.inner(ctx, u)
		if err != nil {
			return nil, err
		}
		ctx.stats.ListOps++
		ctx.stats.EntriesIn += lA.Len() + ld.Len()
		dst := ctx.arena.alloc(lA.Len())
		dst = appendJoin(dst, lA.entries, ld.entries, 0, ev.tree, &ctx.sc.join)
		return ctx.arena.commitList(dst), nil
	case lang.RepAnd:
		ll, lr, err := ev.evalPair(ctx, u.Left, u.Right, lA)
		if err != nil {
			return nil, err
		}
		ctx.stats.ListOps++
		ctx.stats.EntriesIn += ll.Len() + lr.Len()
		dst := ctx.arena.alloc(min(ll.Len(), lr.Len()))
		dst = appendIntersect(dst, ll.entries, lr.entries, 0)
		return ctx.arena.commitList(dst), nil
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
		dst = appendUnion(dst, ll.entries, lr.entries, 0, u.EdgeCost)
		return ctx.arena.commitList(dst), nil
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
				ctx2 := ev.getCtx()
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
