package eval

import (
	"cmp"
	"context"
	"fmt"
	"slices"

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
}

// Evaluator runs algorithm primary (Section 6.5) against a data tree. An
// Evaluator caches fetched postings and memoizes subquery evaluations (the
// "dynamic programming" of the full algorithm); it is cheap to create, so
// use one per query unless the queries share an expanded representation.
//
// Retained lists are carved from the evaluator's entry arena and operation
// scratch comes from a process-wide pool, so an evaluation performs a small
// constant number of heap allocations regardless of query and list sizes;
// Stats reports the arena and scratch traffic. Evaluation is sequential: an
// Evaluator must not be used from more than one goroutine at a time.
type Evaluator struct {
	tree *xmltree.Tree
	src  index.Source

	// DisableMemo turns off the dynamic programming for the ablation
	// benchmarks.
	DisableMemo bool

	// Deprecated: evaluation is sequential; Parallelism is ignored.
	Parallelism int

	// The memo of the dynamic programming. Only completed computations
	// are stored: one that failed or that a stopped context cut short is
	// computed afresh by the next call.
	fetchCache map[fetchKey][]xmltree.NodeID
	innerCache map[*lang.XNode]*List
	evalCache  map[evalKey]*List

	// cx is the running evaluation's context, checked before each step;
	// sc is its pooled operation scratch. The arena that retained lists
	// are built into and the statistics live as long as the evaluator.
	cx    context.Context
	sc    *opScratch
	arena entryArena
	stats Stats
}

type fetchKey struct {
	label string
	kind  cost.Kind
}

type evalKey struct {
	node *lang.XNode
	list *List
}

// New returns an evaluator over the given data tree and posting source.
func New(tree *xmltree.Tree, src index.Source) *Evaluator {
	// The caches are pre-sized for a typical expanded query (a few dozen
	// labels and subquery keys), so they usually never rehash.
	return &Evaluator{
		tree:       tree,
		src:        src,
		fetchCache: make(map[fetchKey][]xmltree.NodeID, 32),
		innerCache: make(map[*lang.XNode]*List, 32),
		evalCache:  make(map[evalKey]*List, 64),
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
	ev.arena.release()
	ev.fetchCache, ev.innerCache, ev.evalCache = nil, nil, nil
}

// Stats returns the operation counters accumulated so far.
func (ev *Evaluator) Stats() Stats {
	s := ev.stats
	s.ArenaChunks = ev.arena.chunks
	s.ArenaEntries = ev.arena.entries
	s.ScratchHits += ev.arena.poolHits
	s.ScratchMisses += ev.arena.poolMisses
	return s
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
	sc, hit := acquireScratch()
	if hit {
		ev.stats.ScratchHits++
	} else {
		ev.stats.ScratchMisses++
	}
	ev.cx, ev.sc = cx, sc
	defer func() {
		releaseScratch(sc)
		ev.cx, ev.sc = nil, nil
	}()
	return ev.inner(root)
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
func (ev *Evaluator) posting(label string, kind cost.Kind) ([]xmltree.NodeID, error) {
	key := fetchKey{label, kind}
	if post, ok := ev.fetchCache[key]; ok {
		return post, nil
	}
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
	ev.stats.Fetches++
	ev.fetchCache[key] = post
	return post, nil
}

// inner computes the ancestor-independent part of a RepNode or RepLeaf:
// the matches of the label and its renamings, annotated with the embedding
// costs of the node's content. This is the memoized quantity of the paper's
// dynamic programming: it is evaluated once regardless of how many ancestor
// contexts reference the node.
func (ev *Evaluator) inner(u *lang.XNode) (*List, error) {
	if ev.DisableMemo {
		ev.stats.Evaluations++
		return ev.computeInner(u)
	}
	if l, ok := ev.innerCache[u]; ok {
		ev.stats.MemoHits++
		return l, nil
	}
	ev.stats.Evaluations++
	l, err := ev.computeInner(u)
	if err != nil {
		return nil, err
	}
	ev.innerCache[u] = l
	return l, nil
}

func (ev *Evaluator) computeInner(u *lang.XNode) (*List, error) {
	if err := ev.cx.Err(); err != nil {
		return nil, err
	}
	switch u.Rep {
	case lang.RepLeaf:
		// Leaf matches have embedding cost 0 plus the renaming charge and
		// are by definition query-leaf matches: the leaf rule.
		return ev.matches(u, true)
	case lang.RepNode:
		if u.Child == nil {
			// A bare root selector: its matches double as leaf matches,
			// exactly the leaf rule.
			return ev.matches(u, true)
		}
		return ev.innerNode(u)
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
func (ev *Evaluator) innerNode(u *lang.XNode) (*List, error) {
	lv, err := ev.matches(u, false)
	if err != nil {
		return nil, err
	}
	// computeEval, not eval: lv is private to u, so nothing else evaluates
	// against it, and the fresh result is not shared until it is returned,
	// so the charges may go into it in place.
	l, err := ev.computeEval(u.Child, lv)
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
func (ev *Evaluator) matches(u *lang.XNode, leaf bool) (*List, error) {
	vs := ev.sc.variants[:0]
	n := 0
	for k := -1; k < len(u.Renamings); k++ {
		label, charge := u.Label, cost.Cost(0)
		if k >= 0 {
			label, charge = u.Renamings[k].To, u.Renamings[k].Cost
		}
		post, err := ev.posting(label, u.Kind)
		if err != nil {
			return nil, err
		}
		if len(post) > 0 {
			vs = append(vs, variant{post, charge})
			n += len(post)
		}
	}
	ev.sc.variants = vs
	if len(u.Renamings) > 0 {
		ev.stats.ListOps++
		ev.stats.EntriesIn += n
	}
	dst := ev.arena.alloc(n)
	return ev.arena.commitList(appendVariants(dst, ev.tree, vs, leaf), cost.Inf), nil
}

// eval is algorithm primary (Figure 4) restructured around a uniform edge
// cost: primary(u, cEdge, lA) of the paper equals bump(eval(u, lA), cEdge)
// because every case adds cEdge to each produced entry. Results are memoized
// on (node, ancestor-list identity); inner returns canonical lists, so
// repeated evaluations of shared subtrees (deletion bridges) hit the memo.
func (ev *Evaluator) eval(u *lang.XNode, lA *List) (*List, error) {
	if ev.DisableMemo {
		return ev.computeEval(u, lA)
	}
	key := evalKey{u, lA}
	if l, ok := ev.evalCache[key]; ok {
		ev.stats.MemoHits++
		return l, nil
	}
	l, err := ev.computeEval(u, lA)
	if err != nil {
		return nil, err
	}
	ev.evalCache[key] = l
	return l, nil
}

func (ev *Evaluator) computeEval(u *lang.XNode, lA *List) (*List, error) {
	if err := ev.cx.Err(); err != nil {
		return nil, err
	}
	switch u.Rep {
	case lang.RepLeaf, lang.RepNode:
		ld, err := ev.inner(u)
		if err != nil {
			return nil, err
		}
		ev.stats.ListOps++
		ev.stats.EntriesIn += lA.Len() + ld.Len()
		sc := &ev.sc.join
		dst := ev.arena.alloc(joinCore(ev.tree, lA.entries, ld, sc))
		dflt := cost.Inf
		if u.Rep == lang.RepLeaf {
			// Outerjoin: an ancestor without a leaf match costs the
			// deletion, and holds no entry.
			dst, dflt = emitOuterjoin(dst, sc, 0, u.DelCost)
		} else {
			dst = emitJoin(dst, sc, 0)
		}
		return ev.arena.commitList(dst, dflt), nil
	case lang.RepAnd:
		ll, lr, err := ev.evalPair(u.Left, u.Right, lA)
		if err != nil {
			return nil, err
		}
		ev.stats.ListOps++
		ev.stats.EntriesIn += ll.Len() + lr.Len()
		dst := ev.arena.alloc(intersectBound(ll.Len(), lr.Len(), ll.dflt, lr.dflt))
		dst, dflt := appendIntersect(dst, ll.entries, lr.entries, ll.dflt, lr.dflt, 0)
		return ev.arena.commitList(dst, dflt), nil
	case lang.RepOr:
		ll, lr, err := ev.evalPair(u.Left, u.Right, lA)
		if err != nil {
			return nil, err
		}
		// The or-branch's edge charge (bump of the paper) folds into the
		// union as a per-side cost.
		ev.stats.ListOps++
		ev.stats.EntriesIn += ll.Len() + lr.Len()
		dst := ev.arena.alloc(ll.Len() + lr.Len())
		dst, dflt := appendUnion(dst, ll.entries, lr.entries, ll.dflt, lr.dflt, 0, u.EdgeCost)
		return ev.arena.commitList(dst, dflt), nil
	}
	return nil, fmt.Errorf("eval: unknown representation type %v", u.Rep)
}

// evalPair evaluates two sibling subtrees against the same ancestor list,
// left first.
func (ev *Evaluator) evalPair(uL, uR *lang.XNode, lA *List) (*List, *List, error) {
	ll, err := ev.eval(uL, lA)
	if err != nil {
		return nil, nil, err
	}
	lr, err := ev.eval(uR, lA)
	if err != nil {
		return nil, nil, err
	}
	return ll, lr, nil
}
