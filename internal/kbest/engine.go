package kbest

import (
	"cmp"
	"context"
	"fmt"
	"slices"

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

// Engine evaluates the adapted algorithm primary against a schema with a
// fixed k. Use SecondLevel to obtain the sorted second-level queries and
// Secondary to execute them. The incremental loop, internal/exec, creates
// engines with growing k (Section 7.4).
type Engine struct {
	sch   *schema.Schema
	sec   schema.SecSource
	k     int
	stats Stats

	// defaultExec serves the engine's own Secondary calls; a driver that
	// wants its own cache and counters creates one with NewExecutor.
	defaultExec *Executor
}

// NewEngine returns an engine over sch that keeps the best k embeddings per
// (query subtree, schema subtree). Secondary postings are served from the
// in-memory schema; use NewEngineWithSecondary for a stored I_sec.
func NewEngine(sch *schema.Schema, k int) *Engine {
	return NewEngineWithSecondary(sch, k, sch)
}

// NewEngineWithSecondary is NewEngine with an explicit secondary-index
// source, e.g. a schema.StoredSec reading path-dependent postings from the
// embedded B+tree store.
func NewEngineWithSecondary(sch *schema.Schema, k int, sec schema.SecSource) *Engine {
	return &Engine{sch: sch, sec: sec, k: max(k, 1)}
}

// Stats returns the engine's planning counters.
func (en *Engine) Stats() Stats { return en.stats }

// SecondLevel runs the adapted algorithm primary against the schema and
// returns the best k second-level queries sorted by ascending cost
// (Section 7.2). Only skeletons containing at least one query-leaf match
// qualify (the keep-one-leaf rule).
func (en *Engine) SecondLevel(x *lang.Expanded) ([]*Entry, error) {
	return en.SecondLevelContext(context.Background(), x)
}

// SecondLevelContext is SecondLevel with cancellation: the context is
// checked between dynamic-programming steps, so a cancelled or expired
// context aborts planning with ctx.Err() instead of running to completion.
func (en *Engine) SecondLevelContext(ctx context.Context, x *lang.Expanded) ([]*Entry, error) {
	if x.Root.Rep != lang.RepNode {
		return nil, fmt.Errorf("kbest: expanded root has type %v, want node", x.Root.Rep)
	}
	p := getPlanner(en.sch, en.k, ctx)
	defer putPlanner(p)
	l, err := p.inner(x.Root)
	en.stats.Fetches += p.stats.Fetches
	en.stats.ListOps += p.stats.ListOps
	if err != nil {
		return nil, err
	}
	sel := p.sel[:0]
	for _, i := range p.at(l) {
		if n := &p.nodes[i]; n.hasLeaf && !cost.IsInf(n.cost) {
			sel = append(sel, i)
		}
	}
	slices.SortFunc(sel, func(a, b int32) int {
		na, nb := &p.nodes[a], &p.nodes[b]
		if c := cmp.Compare(na.cost, nb.cost); c != 0 {
			return c
		}
		if c := cmp.Compare(na.class, nb.class); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	p.sel = sel
	return p.export(sel[:min(len(sel), en.k)]), nil
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

// variant is the match list of u under one of its labels: the marked
// fetch of a leaf, or the evaluation of u's content against the fetch.
func (p *planner) variant(u *lang.XNode, label string) (list, error) {
	f := p.fetch(label, u.Kind)
	if u.Rep == lang.RepLeaf || u.Child == nil {
		return p.markLeaf(p.fetches[f].list), nil
	}
	return p.eval(u.Child, f)
}

// eval evaluates u against the ancestor list of fetch f. The ancestor list
// is always a fetch list, so the fetch index identifies it in the memo.
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
			return p.outerjoin(p.fetches[f].list, ld, u.DelCost), nil
		}
		return p.join(p.fetches[f].list, ld), nil
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

// export builds the exported plans of the selected nodes. Every distinct
// node reachable from them becomes one Entry, so children shared between
// plans stay shared; Entries and pointer sets come from two allocations.
func (p *planner) export(sel []int32) []*Entry {
	p.order = p.order[:0]
	for _, i := range sel {
		p.collect(i)
	}
	ptrs := 0
	for _, i := range p.order {
		ptrs += int(p.nodes[i].nkids)
	}
	ents := make([]Entry, len(p.order))
	ptrSlab := make([]*Entry, ptrs)
	for slot, i := range p.order {
		n := &p.nodes[i]
		f := &p.fetches[n.fetch]
		e := &ents[slot]
		*e = Entry{
			Class:    n.class,
			Bound:    p.sch.Bound(n.class),
			PathCost: p.sch.PathCost(n.class),
			InsCost:  p.sch.InsCost(n.class),
			Cost:     n.cost,
			HasLeaf:  n.hasLeaf,
			Label:    f.label,
			Kind:     f.kind,
		}
		if n.nkids == 0 {
			continue
		}
		e.Pointers, ptrSlab = ptrSlab[:n.nkids:n.nkids], ptrSlab[n.nkids:]
		for x, c := range p.kids[n.kids : n.kids+n.nkids] {
			e.Pointers[x] = &ents[p.exported[c]]
		}
	}
	out := make([]*Entry, len(sel))
	for x, i := range sel {
		out[x] = &ents[p.exported[i]]
	}
	return out
}

// collect numbers node i and everything reachable from it in
// planner.exported, in first-visit order.
func (p *planner) collect(i int32) {
	if _, ok := p.exported[i]; ok {
		return
	}
	p.exported[i] = int32(len(p.order))
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
// Executor per round with NewExecutor instead.
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

// PlanBoundCeiling saturates PlanBound's product so it cannot overflow; it
// still exceeds any k a caller could realistically plan with. A bound at
// the ceiling proves nothing about the plan space.
const PlanBoundCeiling = 1 << 30

// PlanBound returns an upper bound on the number of distinct second-level
// queries that planning can generate for x against sch, derived from the
// schema: every skeleton assigns to each selector node either one of its
// candidate classes (for its label or any renaming) or "deleted", so the
// product of (candidates + 1) over all selector nodes bounds the number of
// skeletons. Incremental drivers use it as the termination guard — once k
// reaches the bound, growing k cannot produce new second-level queries. The
// product saturates at PlanBoundCeiling for pathological cost models whose
// closure is astronomically large.
func PlanBound(sch *schema.Schema, x *lang.Expanded) int {
	bound := 1
	for _, u := range x.Nodes {
		if u.Rep != lang.RepNode && u.Rep != lang.RepLeaf {
			continue
		}
		cand := classCount(sch, u.Label, u.Kind)
		for _, r := range u.Renamings {
			cand += classCount(sch, r.To, u.Kind)
		}
		if bound > PlanBoundCeiling/(cand+1) {
			return PlanBoundCeiling
		}
		bound *= cand + 1
	}
	return bound
}

func classCount(sch *schema.Schema, label string, kind cost.Kind) int {
	if kind == cost.Text {
		return len(sch.TextClasses(label))
	}
	return len(sch.StructClasses(label))
}
