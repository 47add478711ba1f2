// Package eval implements the direct query evaluation of the paper
// (Section 6): the list algebra (fetch, merge, join, outerjoin, intersect,
// union, sort) and algorithm primary, which finds the images of all
// approximate embeddings of a query in one bottom-up pass and solves the
// best-n-pairs problem by sorting and pruning.
//
// Lists evaluated against an ancestor list are sparse: a list holds the
// entries that differ from its default cost, and every other position of
// the ancestor list costs the default (see List). A query leaf's outerjoin
// writes only the ancestors it matched, and intersect and union combine
// the held positions with the other side's default.
//
// The list algebra is allocation-disciplined: every operation has an
// append-style core that writes into a caller-provided buffer, an arena
// reservation on the evaluator's hot path, with exact output upper bounds
// (merge ≤ the summed posting lengths of the label variants, union ≤
// |l|+|r|, join and outerjoin ≤ the matched ancestors, intersect ≤
// min(|l|,|r|) when both defaults are ∞ and at most |l|+|r| otherwise, see
// intersectBound). The thin wrappers that allocate fresh slices remain for
// the reference paths and the tests; they produce dense lists (every
// position held), and the evaluator hot path never calls them.
// docs/PERFORMANCE.md describes the discipline.
//
// The package also contains an independent reference evaluator
// (reference.go) that implements the closure semantics of Section 5
// directly; the property tests cross-check both.
package eval

import (
	"math"
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

// List is a sequence of entries sorted by ascending Pre with at most one
// entry per node. Lists are immutable once built: operations never write
// through a *List another step can see, which makes inner-list and eval
// memoization safe. The entries may live in an evaluator's arena; the List
// keeps the chunk alive.
//
// A list the evaluator computed against an ancestor list lA is sparse:
// every entry of lA that entries does not hold costs EmbCost = dflt and
// LeafCost = ∞. A dflt of cost.Inf means those positions are absent, which
// is what variant lists, leaf lists, join outputs and the dense lists of
// the allocating wrappers hold. An inner list also remembers base, the
// merged label variants its content was evaluated against (see innerNode):
// a position of base missing from entries costs dflt plus its renaming
// charge, base's EmbCost. base is nil on every other list, and joins read
// dflt only through it.
type List struct {
	entries []Entry
	dflt    cost.Cost
	base    []Entry
}

// Len returns the number of entries.
func (l *List) Len() int { return len(l.entries) }

// dense wraps entries that hold every position of their list.
func dense(entries []Entry) *List { return &List{entries: entries, dflt: cost.Inf} }

var emptyList = dense(nil)

// --- append-style cores ----------------------------------------------------
//
// Each core appends its result to dst and returns the extended slice. dst
// must not alias either input. Appending at most the documented bound keeps
// an arena reservation or a pre-grown scratch buffer allocation-free.

// variant is one label variant of a query node: the index posting of the
// label and the renaming charge each of its matches carries.
type variant struct {
	post   []xmltree.NodeID
	charge cost.Cost
}

// appendVariants appends the entries of the nodes in the non-empty postings
// vs, merged by Pre in one k-way pass (Section 6.4, functions fetch and
// merge, over all renamings of a label at once). Each entry's EmbCost is the
// charge of its variant; a node in several variants (a renaming of the label
// to itself, or a text node holding several of the terms) keeps the
// cheapest. leaf applies the leaf rule, LeafCost = EmbCost; otherwise
// LeafCost is ∞. Bounds come from t. vs is used as a min-heap on the head
// Pre and consumed; while the top variant leads the others, its run is
// copied without touching the heap. Appends at most the summed lengths.
func appendVariants(dst []Entry, t *xmltree.Tree, vs []variant, leaf bool) []Entry {
	for i := len(vs)/2 - 1; i >= 0; i-- {
		siftVariant(vs, i)
	}
	for len(vs) > 0 {
		v := &vs[0]
		// The smallest head below the top bounds the run it may copy.
		limit := xmltree.NodeID(t.Len())
		if len(vs) > 1 {
			limit = vs[1].post[0]
		}
		if len(vs) > 2 {
			limit = min(limit, vs[2].post[0])
		}
		leafCost := cost.Inf
		if leaf {
			leafCost = v.charge
		}
		i := 0
		if n := len(dst); n > 0 && dst[n-1].Pre == v.post[0] {
			dst[n-1].EmbCost = min(dst[n-1].EmbCost, v.charge)
			dst[n-1].LeafCost = min(dst[n-1].LeafCost, leafCost)
			i = 1
		}
		for ; i < len(v.post) && (i == 0 || v.post[i] < limit); i++ {
			u := v.post[i]
			dst = append(dst, Entry{Pre: u, Bound: t.Bound(u), EmbCost: v.charge, LeafCost: leafCost})
		}
		if v.post = v.post[i:]; len(v.post) == 0 {
			last := len(vs) - 1
			vs[0] = vs[last]
			vs = vs[:last]
		}
		siftVariant(vs, 0)
	}
	return dst
}

// siftVariant restores the min-heap order of vs on head Pre below i.
func siftVariant(vs []variant, i int) {
	for {
		least := i
		if l := 2*i + 1; l < len(vs) && vs[l].post[0] < vs[least].post[0] {
			least = l
		}
		if r := 2*i + 2; r < len(vs) && vs[r].post[0] < vs[least].post[0] {
			least = r
		}
		if least == i {
			return
		}
		vs[i], vs[least] = vs[least], vs[i]
		i = least
	}
}

// addCharges adds to each entry of l, in place, the renaming charge its node
// carries as EmbCost in lv (see appendVariants). l must be a Pre-subsequence
// of lv, as every list evaluated against the ancestor list lv is; lv is
// galloped through, so a sparse l costs little more than its own length.
func addCharges(l, lv []Entry) {
	j := 0
	for i := range l {
		if lv[j].Pre < l[i].Pre {
			j = skipPast(lv, j, l[i].Pre-1)
		}
		if c := lv[j].EmbCost; c != 0 {
			l[i].EmbCost = cost.Add(l[i].EmbCost, c)
			l[i].LeafCost = cost.Add(l[i].LeafCost, c)
		}
	}
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
// sc.tmp/sc.matched, indexed like lA, and the count of matched ancestors
// is returned; the caller emits them under its own cost rule.
//
// The descendants are the positions of lD: its entries, or, on an inner
// list with a base, every entry of the base, where an entry of lD overrides
// the default cost. The walk keeps one cursor in each, so the defaults are
// never written out.
func joinCore(t *xmltree.Tree, lA []Entry, lD *List, sc *joinScratch) int {
	pos, sp := lD.entries, lD.entries
	viewed := lD.base != nil
	if viewed {
		pos = lD.base
	}
	if len(pos) == 0 {
		lA = nil // no descendants: nothing to open or emit
	}
	sc.grow(len(lA))
	tmp, matched, open := sc.tmp, sc.matched, sc.open

	n := 0
	i, j, k := 0, 0, 0
	for j < len(pos) {
		pre := pos[j].Pre
		// Open all ancestors that start before this descendant, popping
		// expired ones first so the stack stays properly nested (siblings
		// never coexist on it).
		for i < len(lA) && lA[i].Pre < pre {
			open = closeExpired(open, tmp, lA[i].Pre)
			tmp[i] = lA[i]
			tmp[i].EmbCost = cost.Inf
			tmp[i].LeafCost = cost.Inf
			open = append(open, i)
			i++
		}
		// Close ancestors whose subtree ended.
		open = closeExpired(open, tmp, pre)
		if len(open) == 0 {
			if i >= len(lA) {
				break
			}
			// Nothing covers the descendant, and the next ancestor
			// starts at or after it: no descendant up to that Pre can
			// match. Insertions only change distances, never
			// containment, so skipping is sound.
			j = skipPast(pos, j, lA[i].Pre)
			if viewed && k < len(sp) && sp[k].Pre <= lA[i].Pre {
				k = skipPast(sp, k, lA[i].Pre)
			}
			continue
		}
		emb, leaf := pos[j].EmbCost, pos[j].LeafCost
		if viewed {
			if k < len(sp) && sp[k].Pre == pre {
				emb, leaf = sp[k].EmbCost, sp[k].LeafCost
				k++
			} else {
				emb, leaf = cost.Add(lD.dflt, emb), cost.Inf
			}
		}
		for _, ai := range open {
			a := &tmp[ai]
			if a.Bound < pre {
				continue // not an ancestor of pre: its subtree ended
			}
			dist := t.Distance(a.Pre, pre)
			if c := cost.Add(dist, emb); c < a.EmbCost {
				a.EmbCost = c
			}
			if c := cost.Add(dist, leaf); c < a.LeafCost {
				a.LeafCost = c
			}
			if !matched[ai] {
				matched[ai] = true
				n++
			}
		}
		j++
	}
	sc.open = open // keep the grown stack for reuse
	return n
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

// emitJoin appends the join result joinCore left in sc (Section 6.4,
// function join): copies of the ancestors with descendants, each costing
// the cheapest distance+cost over its descendants plus cEdge. Every other
// ancestor is absent (default ∞). Appends exactly the matched ancestors.
func emitJoin(dst []Entry, sc *joinScratch, cEdge cost.Cost) []Entry {
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

// emitOuterjoin appends the outerjoin result joinCore left in sc (Section
// 6.4, function outerjoin) sparsely: the ancestors with descendants, each
// costing min(cDel, cheapest match)+cEdge. The LeafCost tracks the cheapest
// genuine match only — deleting the leaf never contributes a query-leaf
// match. Every other ancestor costs the returned default, cDel+cEdge (∞ if
// deletion is forbidden: absent). Appends at most the matched ancestors.
func emitOuterjoin(dst []Entry, sc *joinScratch, cEdge, cDel cost.Cost) ([]Entry, cost.Cost) {
	for ai := range sc.tmp {
		if !sc.matched[ai] {
			continue
		}
		e := sc.tmp[ai]
		e.EmbCost = cost.Add(cost.Min(cDel, e.EmbCost), cEdge)
		e.LeafCost = cost.Add(e.LeafCost, cEdge)
		if !cost.IsInf(e.EmbCost) {
			dst = append(dst, e)
		}
	}
	return dst, cost.Add(cDel, cEdge)
}

// endPre is past every node's Pre: the head of an exhausted list.
const endPre = xmltree.NodeID(math.MaxInt32)

// headPre returns l[i].Pre, or endPre once l is exhausted.
func headPre(l []Entry, i int) xmltree.NodeID {
	if i < len(l) {
		return l[i].Pre
	}
	return endPre
}

// appendIntersect appends the intersection of two lists evaluated against
// one ancestor list (Section 6.4, function intersect): each position costs
// the sum of both sides plus cEdge, where a position one side does not hold
// takes that side's default dL or dR (LeafCost ∞). The LeafCost needs one
// leaf on either side: min(leafL+embR, embL+leafR). Positions neither side
// holds cost the returned default dL+dR+cEdge, and entries of infinite cost
// are dropped, so with both defaults ∞ only the positions held on both
// sides remain. Appends at most intersectBound entries.
func appendIntersect(dst, lL, lR []Entry, dL, dR, cEdge cost.Cost) ([]Entry, cost.Cost) {
	keepL, keepR := !cost.IsInf(dR), !cost.IsInf(dL) // one-sided positions survive
	i, j := 0, 0
	for i < len(lL) || j < len(lR) {
		pL, pR := headPre(lL, i), headPre(lR, j)
		var e Entry
		switch {
		case pL < pR:
			if !keepL {
				if j == len(lR) {
					i = len(lL)
				} else {
					i++
				}
				continue
			}
			e = lL[i]
			e.EmbCost = cost.Add(e.EmbCost, dR)
			e.LeafCost = cost.Add(e.LeafCost, dR)
			i++
		case pR < pL:
			if !keepR {
				if i == len(lL) {
					j = len(lR)
				} else {
					j++
				}
				continue
			}
			e = lR[j]
			e.EmbCost = cost.Add(e.EmbCost, dL)
			e.LeafCost = cost.Add(e.LeafCost, dL)
			j++
		default:
			a, b := lL[i], lR[j]
			e = a
			e.EmbCost = cost.Add(a.EmbCost, b.EmbCost)
			e.LeafCost = cost.Min(cost.Add(a.LeafCost, b.EmbCost), cost.Add(a.EmbCost, b.LeafCost))
			i++
			j++
		}
		e.EmbCost = cost.Add(e.EmbCost, cEdge)
		e.LeafCost = cost.Add(e.LeafCost, cEdge)
		if !cost.IsInf(e.EmbCost) {
			dst = append(dst, e)
		}
	}
	return dst, cost.Add(cost.Add(dL, dR), cEdge)
}

// intersectBound is the most entries appendIntersect emits for inputs of
// nL and nR entries with defaults dL and dR: a position one side holds
// survives only against a finite default on the other.
func intersectBound(nL, nR int, dL, dR cost.Cost) int {
	switch finL, finR := !cost.IsInf(dL), !cost.IsInf(dR); {
	case finL && finR:
		return nL + nR
	case finR:
		return nL
	case finL:
		return nR
	}
	return min(nL, nR)
}

// appendUnion appends the union of two lists evaluated against one ancestor
// list (Section 6.4, function union) with cL added to lL's costs and cR to
// lR's; each position keeps the cheaper adjusted costs, where a position
// one side does not hold takes that side's default dL or dR (LeafCost ∞).
// Positions neither side holds cost the returned default min(dL+cL, dR+cR).
// The per-side charge subsumes the bump of an or-branch's edge cost (RepOr
// evaluates union(l, bump(r, cEdge))) in one pass, and with cL = 0 and both
// defaults ∞ it is the paper's pairwise merge. Appends at most
// len(lL)+len(lR).
func appendUnion(dst, lL, lR []Entry, dL, dR, cL, cR cost.Cost) ([]Entry, cost.Cost) {
	dL, dR = cost.Add(dL, cL), cost.Add(dR, cR)
	i, j := 0, 0
	for i < len(lL) || j < len(lR) {
		pL, pR := headPre(lL, i), headPre(lR, j)
		var e Entry
		switch {
		case pL < pR:
			e = lL[i]
			e.EmbCost = cost.Min(cost.Add(e.EmbCost, cL), dR)
			e.LeafCost = cost.Add(e.LeafCost, cL)
			i++
		case pR < pL:
			e = lR[j]
			e.EmbCost = cost.Min(cost.Add(e.EmbCost, cR), dL)
			e.LeafCost = cost.Add(e.LeafCost, cR)
			j++
		default:
			// Same node on both sides: the cheaper charged costs win; the
			// identity fields agree.
			a := lL[i]
			e = lR[j]
			e.EmbCost = cost.Min(cost.Add(a.EmbCost, cL), cost.Add(e.EmbCost, cR))
			e.LeafCost = cost.Min(cost.Add(a.LeafCost, cL), cost.Add(e.LeafCost, cR))
			i++
			j++
		}
		dst = append(dst, e)
	}
	return dst, cost.Min(dL, dR)
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
// allocates a fresh exactly-bounded slice, delegates to its core with
// absent (∞) defaults, and returns a dense list: the definitions the sparse
// cores are tested against.

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
	return dense(out)
}

// merge returns all entries from lL and lR, with cRen added to the costs of
// the entries from lR (Section 6.4, function merge): lR holds the matches of
// a renamed label. The evaluator merges all variants of a label at once
// (appendVariants); this pairwise form is the paper's definition of it.
func merge(lL, lR *List, cRen cost.Cost) *List {
	if lR.Len() == 0 {
		return lL
	}
	dst := make([]Entry, 0, lL.Len()+lR.Len())
	dst, _ = appendUnion(dst, lL.entries, lR.entries, cost.Inf, cost.Inf, 0, cRen)
	return dense(dst)
}

// join returns copies of the entries from lA that have descendants in lD;
// see emitJoin.
func join(t *xmltree.Tree, lA, lD *List, cEdge cost.Cost) *List {
	if lA.Len() == 0 || lD.Len() == 0 {
		return emptyList
	}
	var sc joinScratch
	dst := make([]Entry, 0, joinCore(t, lA.entries, lD, &sc))
	return dense(emitJoin(dst, &sc, cEdge))
}

// outerjoin returns copies of all entries from lA with the deletion rule
// applied: the sparse result of emitOuterjoin with its default written out
// at every unmatched ancestor.
func outerjoin(t *xmltree.Tree, lA, lD *List, cEdge, cDel cost.Cost) *List {
	var sc joinScratch
	sp, dflt := emitOuterjoin(make([]Entry, 0, joinCore(t, lA.entries, lD, &sc)), &sc, cEdge, cDel)
	return dense(fillDefault(lA.entries, sp, dflt))
}

// fillDefault returns the dense form of the sparse entries sp evaluated
// against lA with default dflt: sp's entry where it holds the position,
// otherwise lA's node at EmbCost dflt and LeafCost ∞, absent if dflt is ∞.
func fillDefault(lA, sp []Entry, dflt cost.Cost) []Entry {
	out := make([]Entry, 0, len(lA))
	k := 0
	for _, a := range lA {
		switch {
		case k < len(sp) && sp[k].Pre == a.Pre:
			out = append(out, sp[k])
			k++
		case !cost.IsInf(dflt):
			out = append(out, Entry{Pre: a.Pre, Bound: a.Bound, EmbCost: dflt, LeafCost: cost.Inf})
		}
	}
	return out
}

// intersect returns the entries present in both lists; see appendIntersect.
func intersect(lL, lR *List, cEdge cost.Cost) *List {
	dst := make([]Entry, 0, min(lL.Len(), lR.Len()))
	dst, _ = appendIntersect(dst, lL.entries, lR.entries, cost.Inf, cost.Inf, cEdge)
	return dense(dst)
}

// union returns all entries from both lists; see appendUnion.
func union(lL, lR *List, cEdge cost.Cost) *List {
	dst := make([]Entry, 0, lL.Len()+lR.Len())
	dst, _ = appendUnion(dst, lL.entries, lR.entries, cost.Inf, cost.Inf, cEdge, cEdge)
	return dense(dst)
}
