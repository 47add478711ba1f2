package kbest

import (
	"context"
	"fmt"

	"approxql/internal/cost"
	"approxql/internal/lang"
	"approxql/internal/schema"
	"approxql/internal/xmltree"
)

// Stats counts the planning work of an Engine; Executors count their own.
type Stats struct {
	Fetches int // schema index fetches (cache misses)
	ListOps int // adapted list operations
}

// Engine plans second-level queries against a schema and executes them
// against the secondary index. Enumerate streams a query's second-level
// queries in ascending cost order; SecondLevel returns the first k of that
// stream; Secondary executes one. Enumerate and NewExecutor leave the
// engine unchanged and may be called concurrently; SecondLevel, Secondary
// and SecondaryCount update the engine's own counters and executor and may
// not.
type Engine struct {
	sch   *schema.Schema
	sec   schema.SecSource
	k     int
	stats Stats

	// defaultExec serves the engine's own Secondary calls; a driver that
	// wants its own cache and counters creates one with NewExecutor.
	defaultExec *Executor
}

// NewEngine returns an engine over sch whose SecondLevel returns the best k
// second-level queries. Secondary postings are served from the in-memory
// schema; use NewEngineWithSecondary for a stored I_sec.
func NewEngine(sch *schema.Schema, k int) *Engine {
	return NewEngineWithSecondary(sch, k, sch)
}

// NewEngineWithSecondary is NewEngine with an explicit secondary-index
// source, e.g. a schema.StoredSec reading path-dependent postings from the
// embedded B+tree store.
func NewEngineWithSecondary(sch *schema.Schema, k int, sec schema.SecSource) *Engine {
	return &Engine{sch: sch, sec: sec, k: max(k, 1)}
}

// Stats returns the planning counters of the engine's SecondLevel calls.
func (en *Engine) Stats() Stats { return en.stats }

// SecondLevel runs the adapted algorithm primary against the schema and
// returns the best k second-level queries sorted by ascending cost
// (Section 7.2): the first k that Enumerate yields.
func (en *Engine) SecondLevel(x *lang.Expanded) ([]*Entry, error) {
	return en.SecondLevelContext(context.Background(), x)
}

// SecondLevelContext is SecondLevel with cancellation: the context is
// checked between dynamic-programming steps and between queries, so a
// cancelled or expired context aborts planning with ctx.Err().
func (en *Engine) SecondLevelContext(ctx context.Context, x *lang.Expanded) ([]*Entry, error) {
	p, err := en.plan(ctx, x)
	if err != nil {
		return nil, err
	}
	defer putPlanner(p)
	sel := p.sel[:0]
	for len(sel) < en.k {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		i := p.pull()
		if i < 0 {
			break
		}
		sel = append(sel, i)
	}
	p.sel = sel
	out := make([]*Entry, len(sel))
	p.export(sel)
	for x, i := range sel {
		out[x] = p.exported[i]
	}
	en.stats.Fetches += p.stats.Fetches
	en.stats.ListOps += p.stats.ListOps
	return out, nil
}

// Stream is the enumeration of one query's second-level queries in
// ascending cost order, computed as far as it is pulled. It must not be
// used from more than one goroutine at a time, and Close returns its
// planner to the pool.
type Stream struct{ p *planner }

// Enumerate runs the adapted algorithm primary against the schema as a
// stream: Next yields every skeleton that has a leaf match and a finite
// cost (the keep-one-leaf rule), in ascending cost order, ties in a fixed
// order. Building the stream computes the structure of every list of the
// dynamic programming but no entry; each Next computes only what deciding
// the next query needs. Two yielded queries can share a signature when the
// query repeats a subexpression, e.g. through the or-alternatives that
// model an inner node's deletion. The context is checked while the lists
// are built and on every Next.
func (en *Engine) Enumerate(ctx context.Context, x *lang.Expanded) (*Stream, error) {
	p, err := en.plan(ctx, x)
	if err != nil {
		return nil, err
	}
	return &Stream{p}, nil
}

// Next returns the next second-level query, or nil when the stream is
// exhausted. A child shared with an earlier query is the same *Entry.
func (st *Stream) Next() (*Entry, error) {
	p := st.p
	if err := p.ctx.Err(); err != nil {
		return nil, err
	}
	i := p.pull()
	if i < 0 {
		return nil, nil
	}
	sel := append(p.sel[:0], i)
	p.sel = sel
	p.export(sel)
	return p.exported[i], nil
}

// Stats returns the stream's planning counters.
func (st *Stream) Stats() Stats { return st.p.stats }

// Close releases the stream's planner; the yielded Entries stay valid, the
// stream does not.
func (st *Stream) Close() { putPlanner(st.p) }

// plan builds the lists of x against the schema on a pooled planner, and
// the root segment: a union of the root's list, whose operand positions
// are its classes in ascending order, so that its entries come in
// (cost, class, position) order.
func (en *Engine) plan(ctx context.Context, x *lang.Expanded) (*planner, error) {
	if x.Root.Rep != lang.RepNode {
		return nil, fmt.Errorf("kbest: expanded root has type %v, want node", x.Root.Rep)
	}
	p := getPlanner(en.sch, ctx)
	l, err := p.inner(x.Root)
	if err != nil {
		putPlanner(p)
		return nil, err
	}
	o, lb := int32(len(p.opnds)), cost.Inf
	for _, s := range p.at(l) {
		p.opnds = append(p.opnds, s)
		lb = min(lb, p.segs[s].lb)
	}
	p.root, p.rootAt = p.newSeg(seg{op: opUnion, lb: lb, a: o, b: l.n, done: l.n == 0}), -1
	return p, nil
}

// inner computes the ancestor-independent list of a RepNode or RepLeaf, the
// memoized quantity of the dynamic programming (as in the direct evaluator).
func (p *planner) inner(u *lang.XNode) (list, error) {
	if l, ok := p.innerMemo[u]; ok {
		return l, nil
	}
	if err := p.ctx.Err(); err != nil {
		return list{}, err
	}
	l, err := p.computeInner(u)
	if err != nil {
		return list{}, err
	}
	p.innerMemo[u] = l
	return l, nil
}

func (p *planner) computeInner(u *lang.XNode) (list, error) {
	switch u.Rep {
	case lang.RepLeaf, lang.RepNode:
		// The variant lists of the label and its renamings (each renaming's
		// list bumped by its cost right after it is built) are pushed on
		// planner.variants, above those of enclosing nodes still being
		// computed, and merged once at the end. A failed run leaves them to
		// putPlanner.
		base := len(p.variants)
		l, err := p.variant(u, u.Label)
		if err != nil {
			return list{}, err
		}
		p.variants = append(p.variants, l)
		for _, r := range u.Renamings {
			lt, err := p.variant(u, r.To)
			if err != nil {
				return list{}, err
			}
			p.stats.ListOps++
			p.variants = append(p.variants, p.bump(lt, r.Cost))
		}
		out := p.union(p.variants[base:])
		p.variants = p.variants[:base]
		return out, nil
	}
	return list{}, fmt.Errorf("kbest: inner called on %v node", u.Rep)
}

// variant is the match list of u under one of its labels: the leaf-marked
// fetch of a leaf, or the evaluation of u's content against the fetch.
func (p *planner) variant(u *lang.XNode, label string) (list, error) {
	f := p.fetch(label, u.Kind)
	if u.Rep == lang.RepLeaf || u.Child == nil {
		return p.leafList(f), nil
	}
	return p.eval(u.Child, f)
}

// eval evaluates u against the ancestor list of fetch f. The ancestor list
// is always a fetch, so the fetch index identifies it in the memo.
func (p *planner) eval(u *lang.XNode, f int32) (list, error) {
	key := evalKey{u, f}
	if l, ok := p.evalMemo[key]; ok {
		return l, nil
	}
	if err := p.ctx.Err(); err != nil {
		return list{}, err
	}
	l, err := p.computeEval(u, f)
	if err != nil {
		return list{}, err
	}
	p.evalMemo[key] = l
	return l, nil
}

func (p *planner) computeEval(u *lang.XNode, f int32) (list, error) {
	switch u.Rep {
	case lang.RepLeaf, lang.RepNode:
		ld, err := p.inner(u)
		if err != nil {
			return list{}, err
		}
		p.stats.ListOps++
		if u.Rep == lang.RepLeaf {
			return p.outerjoin(f, ld, u.DelCost), nil
		}
		return p.join(f, ld), nil
	case lang.RepAnd, lang.RepOr:
		ll, err := p.eval(u.Left, f)
		if err != nil {
			return list{}, err
		}
		lr, err := p.eval(u.Right, f)
		if err != nil {
			return list{}, err
		}
		p.stats.ListOps++
		if u.Rep == lang.RepAnd {
			return p.intersect(ll, lr), nil
		}
		alts := [2]list{ll, p.bump(lr, u.EdgeCost)}
		return p.union(alts[:]), nil
	}
	return list{}, fmt.Errorf("kbest: unknown representation type %v", u.Rep)
}

// exportChunk is the fewest Entries an export allocates at once: a stream
// exports a few Entries per query, and carving them from shared chunks
// keeps that to a handful of allocations per enumeration.
const exportChunk = 16

// export builds an Entry for every node reachable from sel that has none
// yet, recording it in planner.exported. Children shared between plans
// stay shared, also with the plans of earlier exports. Entries and pointer
// sets are carved from chunks, so one export allocates at most twice.
func (p *planner) export(sel []int32) {
	p.order = p.order[:0]
	for _, i := range sel {
		p.collect(i)
	}
	ptrs := 0
	for _, i := range p.order {
		ptrs += int(p.nodes[i].nkids)
	}
	if len(p.ents) < len(p.order) {
		p.ents = make([]Entry, max(len(p.order), exportChunk))
	}
	if len(p.ptrs) < ptrs {
		p.ptrs = make([]*Entry, max(ptrs, exportChunk))
	}
	ents := p.ents[:len(p.order)]
	p.ents = p.ents[len(p.order):]
	for slot, i := range p.order {
		n := &p.nodes[i]
		f := &p.fetches[n.fetch]
		ents[slot] = Entry{
			Class:    n.class,
			Bound:    p.sch.Bound(n.class),
			PathCost: p.sch.PathCost(n.class),
			InsCost:  p.sch.InsCost(n.class),
			Cost:     n.cost,
			HasLeaf:  n.hasLeaf,
			Label:    f.label,
			Kind:     f.kind,
		}
		p.exported[i] = &ents[slot]
	}
	for slot, i := range p.order {
		n := &p.nodes[i]
		if n.nkids == 0 {
			continue
		}
		e := &ents[slot]
		e.Pointers, p.ptrs = p.ptrs[:n.nkids:n.nkids], p.ptrs[n.nkids:]
		for x, c := range p.kids[n.kids : n.kids+n.nkids] {
			e.Pointers[x] = p.exported[c]
		}
	}
}

// collect appends node i and everything reachable from it that is not
// exported yet to planner.order, in first-visit order, marking each in
// planner.exported.
func (p *planner) collect(i int32) {
	if _, ok := p.exported[i]; ok {
		return
	}
	p.exported[i] = nil
	p.order = append(p.order, i)
	n := &p.nodes[i]
	for _, c := range p.kids[n.kids : n.kids+n.nkids] {
		p.collect(c)
	}
}

// Secondary executes a second-level query against the data tree (Figure 5):
// a bottom-up semijoin over the path-dependent postings that returns all
// instances of the skeleton root whose subtrees contain the full skeleton.
// It runs on the engine's internal Executor; internal/exec creates one
// Executor per query with NewExecutor instead.
func (en *Engine) Secondary(e *Entry) ([]xmltree.NodeID, error) {
	if en.defaultExec == nil {
		en.defaultExec = en.NewExecutor()
	}
	return en.defaultExec.Secondary(context.Background(), e)
}

// SecondaryCount reports how many result roots a second-level query
// retrieves without retaining the root list — the introspection path used by
// Explain, which needs counts for many queries but never the results.
func (en *Engine) SecondaryCount(ctx context.Context, e *Entry) (int, error) {
	if en.defaultExec == nil {
		en.defaultExec = en.NewExecutor()
	}
	return en.defaultExec.SecondaryCount(ctx, e)
}
