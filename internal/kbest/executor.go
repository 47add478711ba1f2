package kbest

import (
	"context"

	"approxql/internal/cost"
	"approxql/internal/schema"
	"approxql/internal/xmltree"
)

// ExecStats counts the work done by one Executor.
type ExecStats struct {
	// Runs counts secondary executions, including recursive executions of
	// skeleton children (cache misses only).
	Runs int
	// PostingsScanned counts instance-posting entries touched.
	PostingsScanned int
}

// Executor runs second-level queries against the data tree. It shares the
// engine's schema and secondary-index source but owns its result cache and
// counters. An Executor must not be used from more than one goroutine at a
// time.
type Executor struct {
	tree  *xmltree.Tree
	sec   schema.SecSource
	cache map[*Entry][]xmltree.NodeID
	stats ExecStats
	// sjFree is a free list of semijoin buffers. Each semijoin chain works
	// in its own popped buffer — chains recurse through child second-level
	// queries, so one shared buffer would be clobbered mid-chain — and
	// cached results are exact-size copies, never the buffers themselves.
	sjFree [][]xmltree.NodeID
}

// getSJ pops a reusable semijoin buffer (nil when the free list is empty:
// the first semijoin then allocates one of the right magnitude).
func (ex *Executor) getSJ() []xmltree.NodeID {
	if n := len(ex.sjFree); n > 0 {
		b := ex.sjFree[n-1]
		ex.sjFree = ex.sjFree[:n-1]
		return b[:0]
	}
	return nil
}

func (ex *Executor) putSJ(b []xmltree.NodeID) {
	if b != nil {
		ex.sjFree = append(ex.sjFree, b)
	}
}

// NewExecutor returns an Executor over the engine's schema and secondary
// source with an empty cache.
func (en *Engine) NewExecutor() *Executor {
	return &Executor{
		tree:  en.sch.Tree(),
		sec:   en.sec,
		cache: make(map[*Entry][]xmltree.NodeID),
	}
}

// Stats returns the executor's counters.
func (ex *Executor) Stats() ExecStats { return ex.stats }

// Secondary executes a second-level query against the data tree (Figure 5):
// a bottom-up semijoin over the path-dependent postings that returns all
// instances of the skeleton root whose subtrees contain the full skeleton.
// The context is checked before every posting fetch, so a cancelled query
// stops between skeleton nodes.
func (ex *Executor) Secondary(ctx context.Context, e *Entry) ([]xmltree.NodeID, error) {
	if res, ok := ex.cache[e]; ok {
		return res, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	la, err := ex.fetchPosting(e)
	if err != nil {
		return nil, err
	}
	la, err = ex.semijoinChain(ctx, e, la)
	if err != nil {
		return nil, err
	}
	if len(e.Pointers) > 0 {
		// la aliases the reused semijoin buffer; the cache keeps an
		// exact-size copy.
		res := make([]xmltree.NodeID, len(la))
		copy(res, la)
		la = res
	}
	ex.cache[e] = la
	return la, nil
}

// semijoinChain narrows la by each pointed-to second-level query in turn.
// The first semijoin writes into the executor's reused buffer and later ones
// filter it in place, so a chain costs no allocations; the returned slice
// aliases that buffer whenever e has pointers. Leaf children are fetched
// bounded when the source supports it: no descendant past the last subtree
// bound of la can match, so blocks past it are never read.
func (ex *Executor) semijoinChain(ctx context.Context, e *Entry, la []xmltree.NodeID) ([]xmltree.NodeID, error) {
	if len(e.Pointers) == 0 || len(la) == 0 {
		if len(e.Pointers) > 0 {
			return la[:0], nil
		}
		return la, nil
	}
	bound := xmltree.NodeID(0)
	for _, u := range la {
		if b := ex.tree.Bound(u); b > bound {
			bound = b
		}
	}
	buf := ex.getSJ()
	defer func() { ex.putSJ(buf) }()
	for i, d := range e.Pointers {
		ld, err := ex.child(ctx, d, bound)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			buf = ex.semijoinInto(buf, la, ld)
			la = buf
		} else {
			la = ex.semijoinInto(la[:0], la, ld)
		}
		if len(la) == 0 {
			break
		}
	}
	return la, nil
}

// child resolves one pointed-to entry for a semijoin against an ancestor
// list bounded by bound. Cached results are served as usual; an uncached
// leaf (no pointers of its own) is fetched bounded when the source supports
// it, and that truncated posting is deliberately not cached — a later query
// may need entries past this bound. Everything else runs as a full
// second-level query.
func (ex *Executor) child(ctx context.Context, d *Entry, bound xmltree.NodeID) ([]xmltree.NodeID, error) {
	if res, ok := ex.cache[d]; ok {
		return res, nil
	}
	if len(d.Pointers) == 0 {
		if up, ok := ex.sec.(schema.SecSourceUpTo); ok {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			ex.stats.Runs++
			var ld []xmltree.NodeID
			var err error
			if d.Kind == cost.Text {
				ld, err = up.SecTermInstancesUpTo(d.Class, d.Label, bound)
			} else {
				ld, err = up.SecInstancesUpTo(d.Class, bound)
			}
			if err != nil {
				return nil, err
			}
			ex.stats.PostingsScanned += len(ld)
			return ld, nil
		}
	}
	return ex.Secondary(ctx, d)
}

// SecondaryCount is the count-only variant of Secondary: it reports how many
// result roots the second-level query retrieves without retaining the root
// list. Skeletons without pointers are counted straight from the secondary
// index when the source supports it (schema.SecCounter), never materializing
// the posting at all.
func (ex *Executor) SecondaryCount(ctx context.Context, e *Entry) (int, error) {
	if res, ok := ex.cache[e]; ok {
		return len(res), nil
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if len(e.Pointers) == 0 {
		if sc, ok := ex.sec.(schema.SecCounter); ok {
			ex.stats.Runs++
			if e.Kind == cost.Text {
				return sc.SecTermInstanceCount(e.Class, e.Label)
			}
			return sc.SecInstanceCount(e.Class)
		}
	}
	la, err := ex.fetchPosting(e)
	if err != nil {
		return 0, err
	}
	la, err = ex.semijoinChain(ctx, e, la)
	if err != nil {
		return 0, err
	}
	// Deliberately not cached: the count-only path exists so that
	// introspection over many second-level queries does not hold every
	// result list in memory.
	return len(la), nil
}

// fetchPosting loads the I_sec posting of the skeleton root.
func (ex *Executor) fetchPosting(e *Entry) ([]xmltree.NodeID, error) {
	ex.stats.Runs++
	var la []xmltree.NodeID
	var err error
	if e.Kind == cost.Text {
		la, err = ex.sec.SecTermInstances(e.Class, e.Label)
	} else {
		la, err = ex.sec.SecInstances(e.Class)
	}
	if err != nil {
		return nil, err
	}
	ex.stats.PostingsScanned += len(la)
	return la, nil
}

// semijoinInto appends the nodes of la that have a descendant in ld to dst.
// Both lists are sorted by preorder. dst may alias la: the output is an
// order-preserving subsequence of la, so the write index never passes the
// read index. The first entry of ld after u is u's first descendant if u
// has any, so one bound check per ancestor decides; j never moves back,
// because a nested ancestor starts after its parent.
func (ex *Executor) semijoinInto(dst, la, ld []xmltree.NodeID) []xmltree.NodeID {
	j := 0
	for _, u := range la {
		for j < len(ld) && ld[j] <= u {
			j++
		}
		if j < len(ld) && ld[j] <= ex.tree.Bound(u) {
			dst = append(dst, u)
		}
		ex.stats.PostingsScanned++
	}
	return dst
}
