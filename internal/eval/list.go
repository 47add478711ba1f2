// Package eval implements the direct query evaluation of the paper
// (Section 6): the list algebra (fetch, merge, join, outerjoin, intersect,
// union, sort) and algorithm primary, which finds the images of all
// approximate embeddings of a query in one bottom-up pass and solves the
// best-n-pairs problem by sorting and pruning.
//
// The list algebra is allocation-disciplined: every operation has an
// append-style core that writes into a caller-provided buffer — an arena
// reservation for retained (memoized) lists, pooled scratch for merge-chain
// intermediates — with exact output upper bounds (merge/union ≤ |l|+|r|,
// join/outerjoin ≤ |lA|, intersect ≤ min(|l|,|r|)). The thin wrappers that
// allocate fresh slices remain for the reference paths and the tests; the
// evaluator hot path never calls them. docs/PERFORMANCE.md describes the
// discipline.
//
// The package also contains an independent reference evaluator
// (reference.go) that implements the closure semantics of Section 5
// directly; the property tests cross-check both.
package eval

import (
	"sort"

	"approxql/internal/cost"
	"approxql/internal/xmltree"
)

// Entry is a list entry (Section 6.3) plus the embedding cost, extended with
// LeafCost for the full version's leaf rule (Section 6.5): the cheapest
// embedding of the query subtree whose image contains at least one
// query-leaf match. Entries whose subtree cannot be embedded at all are
// never stored.
//
// The paper's entry copies four numbers from the data node; this one keeps
// only pre and bound, which every operation reads. Pathcost and inscost feed
// nothing but the join's distance, so joinCore reads them from the tree's
// arrays (xmltree.Tree.Distance) instead of every list copying them.
type Entry struct {
	Pre      xmltree.NodeID
	Bound    xmltree.NodeID
	EmbCost  cost.Cost
	LeafCost cost.Cost
}

// isAncestor reports whether a is a proper ancestor of d.
func isAncestor(a, d *Entry) bool {
	return a.Pre < d.Pre && a.Bound >= d.Pre
}

// List is a sequence of entries sorted by ascending Pre with at most one
// entry per node. Lists are immutable once built: operations never write
// through a *List, which makes fetch and inner-list memoization safe. The
// entries may live in an evaluator's arena; the List keeps the chunk alive.
type List struct {
	entries []Entry
}

// Len returns the number of entries.
func (l *List) Len() int { return len(l.entries) }

var emptyList = &List{}

// --- append-style cores ----------------------------------------------------
//
// Each core appends its result to dst and returns the extended slice. dst
// must not alias either input. Appending at most the documented bound keeps
// an arena reservation or a pre-grown scratch buffer allocation-free.

// appendMarkLeaf appends a copy of l with LeafCost set to EmbCost: leaf
// matches are by definition query-leaf matches. Appends exactly len(l).
func appendMarkLeaf(dst, l []Entry) []Entry {
	for _, e := range l {
		e.LeafCost = e.EmbCost
		dst = append(dst, e)
	}
	return dst
}

// appendMinUnion is the shared core of merge and union: the pointwise
// minimum over the union of both lists, with cL/cR added to each side's
// costs and the leaf rule (LeafCost = EmbCost, before the charge) optionally
// applied per side. Minimum and clamped addition make the operation
// associative and commutative over charged lists, which is what lets a
// renaming merge chain be folded in any order — including the parallel
// reduction tree — with bit-identical results. Appends at most
// len(lL)+len(lR).
func appendMinUnion(dst, lL, lR []Entry, cL, cR cost.Cost, markL, markR bool) []Entry {
	i, j := 0, 0
	for i < len(lL) && j < len(lR) {
		a, b := lL[i], lR[j]
		if markL {
			a.LeafCost = a.EmbCost
		}
		if markR {
			b.LeafCost = b.EmbCost
		}
		switch {
		case a.Pre < b.Pre:
			a.EmbCost = cost.Add(a.EmbCost, cL)
			a.LeafCost = cost.Add(a.LeafCost, cL)
			dst = append(dst, a)
			i++
		case a.Pre > b.Pre:
			b.EmbCost = cost.Add(b.EmbCost, cR)
			b.LeafCost = cost.Add(b.LeafCost, cR)
			dst = append(dst, b)
			j++
		default:
			// Same node on both sides (possible in the schema, where
			// renamed terms can share a compacted text class): the
			// cheaper charged costs win; the identity fields agree.
			b.EmbCost = cost.Min(cost.Add(a.EmbCost, cL), cost.Add(b.EmbCost, cR))
			b.LeafCost = cost.Min(cost.Add(a.LeafCost, cL), cost.Add(b.LeafCost, cR))
			dst = append(dst, b)
			i++
			j++
		}
	}
	for ; i < len(lL); i++ {
		a := lL[i]
		if markL {
			a.LeafCost = a.EmbCost
		}
		a.EmbCost = cost.Add(a.EmbCost, cL)
		a.LeafCost = cost.Add(a.LeafCost, cL)
		dst = append(dst, a)
	}
	for ; j < len(lR); j++ {
		b := lR[j]
		if markR {
			b.LeafCost = b.EmbCost
		}
		b.EmbCost = cost.Add(b.EmbCost, cR)
		b.LeafCost = cost.Add(b.LeafCost, cR)
		dst = append(dst, b)
	}
	return dst
}

// appendMerge appends all entries from lL and lR, with cRen added to the
// costs of the entries from lR (Section 6.4, function merge): lR holds the
// matches of a renamed label. markRight additionally applies the leaf rule
// to lR entries, fusing the markLeaf of a renamed leaf variant into the
// merge. Appends at most len(lL)+len(lR).
func appendMerge(dst, lL, lR []Entry, cRen cost.Cost, markRight bool) []Entry {
	return appendMinUnion(dst, lL, lR, 0, cRen, false, markRight)
}

// joinCore runs the one-pass stack algorithm shared by join and outerjoin
// (Section 6.4): for every ancestor in lA it computes the cheapest
// distance+cost over its descendants in lD. Because lists are sorted by Pre
// and subtrees nest, a stack of open ancestors processes both lists in one
// merge pass: every descendant contributes to exactly the ancestors
// currently open, of which there are at most l (the recursivity of the data
// tree) — the paper's O(s·l) bound. Descendants that no open ancestor
// covers are skipped by galloping to the next ancestor's Pre. Distances come
// from t, the data tree both lists were fetched from. Results land in
// sc.tmp/sc.matched, indexed like lA; the caller emits them under its own
// cost rule.
func joinCore(t *xmltree.Tree, lA, lD []Entry, sc *joinScratch) {
	sc.grow(len(lA))
	tmp, matched, open := sc.tmp, sc.matched, sc.open

	i, j := 0, 0
	for j < len(lD) {
		d := &lD[j]
		// Open all ancestors that start before this descendant, popping
		// expired ones first so the stack stays properly nested (siblings
		// never coexist on it).
		for i < len(lA) && lA[i].Pre < d.Pre {
			open = closeExpired(open, tmp, lA[i].Pre)
			tmp[i] = lA[i]
			tmp[i].EmbCost = cost.Inf
			tmp[i].LeafCost = cost.Inf
			open = append(open, i)
			i++
		}
		// Close ancestors whose subtree ended.
		open = closeExpired(open, tmp, d.Pre)
		if len(open) == 0 {
			if i >= len(lA) {
				break
			}
			// Nothing covers d, and the next ancestor starts at or after
			// it: no descendant up to that Pre can match. Insertions only
			// change distances, never containment, so skipping is sound.
			j = skipPast(lD, j, lA[i].Pre)
			continue
		}
		for _, ai := range open {
			a := &tmp[ai]
			if !isAncestor(a, d) {
				continue
			}
			dist := t.Distance(a.Pre, d.Pre)
			if c := cost.Add(dist, d.EmbCost); c < a.EmbCost {
				a.EmbCost = c
			}
			if c := cost.Add(dist, d.LeafCost); c < a.LeafCost {
				a.LeafCost = c
			}
			matched[ai] = true
		}
		j++
	}
	sc.open = open // keep the grown stack for reuse
}

// skipPast returns the index of the first entry of l after j whose Pre
// exceeds pre; l[j].Pre must not exceed it. It gallops (steps 1, 2, 4, …)
// and then binary-searches the last step, so a short gap costs a few
// comparisons and a long one O(log gap).
func skipPast(l []Entry, j int, pre xmltree.NodeID) int {
	step := 1
	for j+step < len(l) && l[j+step].Pre <= pre {
		j += step
		step *= 2
	}
	hi := min(j+step, len(l))
	return j + 1 + sort.Search(hi-j-1, func(k int) bool { return l[j+1+k].Pre > pre })
}

// appendJoin appends the join of lA with lD (Section 6.4, function join):
// copies of the entries from lA that have descendants in lD, each costing
// the cheapest distance+cost over its descendants plus cEdge. Appends at
// most len(lA).
func appendJoin(dst, lA, lD []Entry, cEdge cost.Cost, t *xmltree.Tree, sc *joinScratch) []Entry {
	if len(lA) == 0 || len(lD) == 0 {
		return dst
	}
	joinCore(t, lA, lD, sc)
	for ai := range sc.tmp {
		if sc.matched[ai] {
			e := sc.tmp[ai]
			e.EmbCost = cost.Add(e.EmbCost, cEdge)
			e.LeafCost = cost.Add(e.LeafCost, cEdge)
			dst = append(dst, e)
		}
	}
	return dst
}

// appendOuterjoin appends the outerjoin of lA with lD (Section 6.4, function
// outerjoin): copies of all entries from lA; ancestors without a descendant
// in lD cost cDel+cEdge, the others min(cDel, cheapest match)+cEdge. The
// LeafCost tracks the cheapest genuine match only — deleting the leaf never
// contributes a query-leaf match. Entries whose cost is infinite (no match
// and cDel=∞) are dropped. Appends at most len(lA).
func appendOuterjoin(dst, lA, lD []Entry, cEdge, cDel cost.Cost, t *xmltree.Tree, sc *joinScratch) []Entry {
	if len(lA) == 0 {
		return dst
	}
	joinCore(t, lA, lD, sc)
	for ai, a := range lA {
		e := a
		if sc.matched[ai] {
			m := &sc.tmp[ai]
			e.EmbCost = cost.Add(cost.Min(cDel, m.EmbCost), cEdge)
			e.LeafCost = cost.Add(m.LeafCost, cEdge)
		} else {
			e.EmbCost = cost.Add(cDel, cEdge)
			e.LeafCost = cost.Inf
		}
		if cost.IsInf(e.EmbCost) {
			continue
		}
		dst = append(dst, e)
	}
	return dst
}

// appendIntersect appends the entries present in both lists (Section 6.4,
// function intersect): matching Pre pairs with summed costs plus cEdge. The
// LeafCost needs one leaf on either side: min(leafL+embR, embL+leafR).
// Appends at most min(len(lL), len(lR)).
func appendIntersect(dst, lL, lR []Entry, cEdge cost.Cost) []Entry {
	i, j := 0, 0
	for i < len(lL) && j < len(lR) {
		a, b := lL[i], lR[j]
		switch {
		case a.Pre < b.Pre:
			i++
		case a.Pre > b.Pre:
			j++
		default:
			e := a
			e.EmbCost = cost.Add(cost.Add(a.EmbCost, b.EmbCost), cEdge)
			e.LeafCost = cost.Add(
				cost.Min(cost.Add(a.LeafCost, b.EmbCost), cost.Add(a.EmbCost, b.LeafCost)),
				cEdge)
			if !cost.IsInf(e.EmbCost) {
				dst = append(dst, e)
			}
			i++
			j++
		}
	}
	return dst
}

// appendUnion appends all entries from both lists (Section 6.4, function
// union) with cL added to lL's costs and cR to lR's; nodes present in both
// keep the cheaper adjusted costs. The per-side charge subsumes the bump of
// an or-branch's edge cost (RepOr evaluates union(l, bump(r, cEdge))) in one
// pass. Appends at most len(lL)+len(lR).
func appendUnion(dst, lL, lR []Entry, cL, cR cost.Cost) []Entry {
	return appendMinUnion(dst, lL, lR, cL, cR, false, false)
}

// closeExpired removes ancestors from the open stack whose bound lies before
// pre. Ancestors nest, so expired ones form a suffix of the stack.
func closeExpired(open []int, tmp []Entry, pre xmltree.NodeID) []int {
	for len(open) > 0 && tmp[open[len(open)-1]].Bound < pre {
		open = open[:len(open)-1]
	}
	return open
}

// --- allocating wrappers ---------------------------------------------------
//
// The original list operations, kept for the reference paths, the adapted
// schema algebra, and the tests that pin the algebra's semantics. Each
// allocates a fresh exactly-bounded slice and delegates to its core.

// bump returns a copy of l with c added to every entry's costs. A zero bump
// returns l itself.
func bump(l *List, c cost.Cost) *List {
	if c == 0 || l.Len() == 0 {
		return l
	}
	out := make([]Entry, len(l.entries))
	copy(out, l.entries)
	for i := range out {
		out[i].EmbCost = cost.Add(out[i].EmbCost, c)
		out[i].LeafCost = cost.Add(out[i].LeafCost, c)
	}
	return &List{entries: out}
}

// merge returns all entries from lL and lR, with cRen added to the costs of
// the entries from lR; see appendMerge.
func merge(lL, lR *List, cRen cost.Cost) *List {
	if lR.Len() == 0 {
		return lL
	}
	dst := make([]Entry, 0, lL.Len()+lR.Len())
	return &List{entries: appendMerge(dst, lL.entries, lR.entries, cRen, false)}
}

// join returns copies of the entries from lA that have descendants in lD;
// see appendJoin.
func join(t *xmltree.Tree, lA, lD *List, cEdge cost.Cost) *List {
	if lA.Len() == 0 || lD.Len() == 0 {
		return emptyList
	}
	var sc joinScratch
	dst := make([]Entry, 0, lA.Len())
	return &List{entries: appendJoin(dst, lA.entries, lD.entries, cEdge, t, &sc)}
}

// outerjoin returns copies of all entries from lA with the deletion rule
// applied; see appendOuterjoin.
func outerjoin(t *xmltree.Tree, lA, lD *List, cEdge, cDel cost.Cost) *List {
	var sc joinScratch
	dst := make([]Entry, 0, lA.Len())
	return &List{entries: appendOuterjoin(dst, lA.entries, lD.entries, cEdge, cDel, t, &sc)}
}

// intersect returns the entries present in both lists; see appendIntersect.
func intersect(lL, lR *List, cEdge cost.Cost) *List {
	dst := make([]Entry, 0, min(lL.Len(), lR.Len()))
	return &List{entries: appendIntersect(dst, lL.entries, lR.entries, cEdge)}
}

// union returns all entries from both lists; see appendUnion.
func union(lL, lR *List, cEdge cost.Cost) *List {
	dst := make([]Entry, 0, lL.Len()+lR.Len())
	return &List{entries: appendUnion(dst, lL.entries, lR.entries, cEdge, cEdge)}
}
