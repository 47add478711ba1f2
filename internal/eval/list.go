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
// |l|+|r|, intersect ≤ min(|l|,|r|) when both defaults are ∞ and at most
// |l|+|r| otherwise, see intersectBound). The join, which keeps only the
// matched ancestors, writes into a reused scratch buffer instead and is
// copied into the arena at its exact length. It skips the ancestors that
// hold no descendant along the ancestor list's enclosing-entry array,
// which is built once per ancestor list on a scratch stack. Thin wrappers
// that allocate fresh slices and produce dense lists (every position held)
// are the paper's definitions of the operations, which the tests check
// the cores against; the evaluator never calls them.
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
// nothing but the join's distance, so appendJoin reads them from the tree's
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
//
// While content is evaluated against it, an ancestor list also carries up,
// its enclosing-entry array (see appendEnclosing), which the joins skip
// along; up is nil on every other list.
type List struct {
	entries []Entry
	dflt    cost.Cost
	base    []Entry
	up      []int32
}

// Len returns the number of entries.
func (l *List) Len() int { return len(l.entries) }

// dense wraps entries that hold every position of their list.
func dense(entries []Entry) *List { return &List{entries: entries, dflt: cost.Inf} }

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
		j = after(lv, j, l[i].Pre-1)
		if c := lv[j].EmbCost; c != 0 {
			l[i].EmbCost = cost.Add(l[i].EmbCost, c)
			l[i].LeafCost = cost.Add(l[i].LeafCost, c)
		}
	}
}

// appendJoin appends the outerjoin of lA with lD (Section 6.4, functions
// join and outerjoin): every ancestor costing min(cDel, its cheapest
// distance+cost over its descendants in lD)+cEdge. The LeafCost tracks the
// cheapest genuine match only — deleting the leaf never contributes a
// query-leaf match. Ancestors without descendants cost the default
// cDel+cEdge and hold no entry, and entries of infinite cost are dropped,
// so join is the case cDel = ∞. Distances come from t, the data tree both
// lists were fetched from, and up is lA's enclosing-entry array (see
// appendEnclosing). Appends at most the matched ancestors, and returns the
// extended slice and the number of ancestors visited.
//
// A subtree is the preorder interval (pre, bound] (Section 6.2), so an
// ancestor's descendants are one run of lD, found by galloping from the
// previous ancestor's run. Each descendant is read once per ancestor that
// contains it, at most l times (the recursivity of the data tree): the
// paper's O(s·l) bound. An ancestor whose run is empty is not followed by
// the next entry of lA but by skipAncestors, which jumps to the next one
// that ends at or after the next descendant, so the ancestors visited
// follow the matches rather than the length of lA. The descendants are the positions
// of lD: its entries, or, on an inner list with a base, every entry of the
// base, where an entry of lD overrides the default cost; a second cursor
// walks the entries over the base, so the defaults are never written out.
func appendJoin(dst []Entry, t *xmltree.Tree, lA []Entry, up []int32, lD *List, cEdge, cDel cost.Cost) ([]Entry, int) {
	pos, sp := lD.entries, lD.entries
	viewed := lD.base != nil
	if viewed {
		pos = lD.base
	}
	visited := 0
	j, k := 0, 0
	for i := 0; i < len(lA); i++ {
		visited++
		a := lA[i]
		if j = after(pos, j, a.Pre); j == len(pos) {
			break
		}
		if x := pos[j].Pre; a.Bound < x {
			i = skipAncestors(lA, up, i, x) - 1 // no descendants
			continue
		}
		end := after(pos, j, a.Bound)
		emb, leaf := cost.Inf, cost.Inf
		if viewed {
			k = after(sp, k, a.Pre)
		}
		m := k
		for _, d := range pos[j:end] {
			e, l := d.EmbCost, d.LeafCost
			if viewed {
				if m < len(sp) && sp[m].Pre == d.Pre {
					e, l = sp[m].EmbCost, sp[m].LeafCost
					m++
				} else {
					e, l = cost.Add(lD.dflt, e), cost.Inf
				}
			}
			dist := t.Distance(a.Pre, d.Pre)
			emb = min(emb, cost.Add(dist, e))
			leaf = min(leaf, cost.Add(dist, l))
		}
		if c := cost.Add(cost.Min(cDel, emb), cEdge); !cost.IsInf(c) {
			dst = append(dst, Entry{Pre: a.Pre, Bound: a.Bound, EmbCost: c, LeafCost: cost.Add(leaf, cEdge)})
		}
	}
	return dst, visited
}

// skipAncestors returns the index of the first entry of lA after i that
// ends at or after x, given that lA[i] ends before x, the first descendant
// past lA[i].Pre: the next ancestor that may hold a descendant. Such an
// entry starts at or after x, and the first of those is p+1, where p is the
// last entry before x; or it starts before x and holds x, and then it is p
// or encloses p, so it lies on the chain that up links from p outwards. A
// link inside lA[i] ends before x, and so does every later link still
// after i; the walk stops there and keeps the outermost link that holds x.
func skipAncestors(lA []Entry, up []int32, i int, x xmltree.NodeID) int {
	bound := lA[i].Bound
	p := after(lA, i+1, x-1) - 1
	next := p + 1
	for q := p; q > i && lA[q].Pre > bound; q = int(up[q]) {
		if lA[q].Bound >= x {
			next = q
		}
	}
	return next
}

// appendEnclosing appends lA's enclosing-entry array to dst: for each entry
// i, the index of the nearest earlier entry of lA whose subtree holds it,
// or -1. The entries enclosing entry i-1 are a chain through the array, and
// entry i's nearest encloser is the first link of that chain, starting at
// i-1, that ends at or after entry i; the links passed over have ended and
// enclose no later entry either, so the pass is linear.
func appendEnclosing(dst []int32, lA []Entry) []int32 {
	base := len(dst)
	for i, e := range lA {
		q := int32(i - 1)
		for q >= 0 && lA[q].Bound < e.Pre {
			q = dst[base+int(q)]
		}
		dst = append(dst, q)
	}
	return dst
}

// after returns the index of the first entry of l at or after j whose Pre
// exceeds pre. The check of l[j] is inlined into the callers, as most
// calls end there; a longer gap is galloped.
func after(l []Entry, j int, pre xmltree.NodeID) int {
	if j < len(l) && l[j].Pre <= pre {
		j = gallop(l, j, pre)
	}
	return j
}

// gallop is after past l[j], which is at or before pre: it steps 1, 2, 4,
// … and then binary-searches the last step, so a short gap costs a few
// comparisons and a long one O(log gap).
func gallop(l []Entry, j int, pre xmltree.NodeID) int {
	step := 1
	for j+step < len(l) && l[j+step].Pre <= pre {
		j += step
		step *= 2
	}
	hi := min(j+step, len(l))
	return j + 1 + sort.Search(hi-j-1, func(k int) bool { return l[j+1+k].Pre > pre })
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

// --- allocating wrappers ---------------------------------------------------
//
// The paper's list operations, the definitions the tests check the sparse
// cores against. Each allocates a fresh slice of the output's upper bound,
// delegates to its core with absent (∞) defaults, and returns a dense list.

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
// see appendJoin.
func join(t *xmltree.Tree, lA, lD *List, cEdge cost.Cost) *List {
	up := appendEnclosing(nil, lA.entries)
	dst, _ := appendJoin(make([]Entry, 0, lA.Len()), t, lA.entries, up, lD, cEdge, cost.Inf)
	return dense(dst)
}

// outerjoin returns copies of all entries from lA with the deletion rule
// applied: the sparse result of appendJoin with its default written out
// at every unmatched ancestor.
func outerjoin(t *xmltree.Tree, lA, lD *List, cEdge, cDel cost.Cost) *List {
	up := appendEnclosing(nil, lA.entries)
	sp, _ := appendJoin(make([]Entry, 0, lA.Len()), t, lA.entries, up, lD, cEdge, cDel)
	return dense(fillDefault(lA.entries, sp, cost.Add(cDel, cEdge)))
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
