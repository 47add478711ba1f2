package kbest

import (
	"cmp"
	"slices"

	"approxql/internal/cost"
	"approxql/internal/schema"
)

// The adapted list operations of Section 7.2. Every operation appends its
// output list to planner.idx and any new nodes to planner.nodes; nodes are
// immutable once appended, so pointer runs are shared freely. Operations
// never nest: each completes its output list before the next one starts.

// at returns the node indices of l. The slice aliases planner.idx and stays
// valid (if stale) across later appends, since list contents never change.
func (p *planner) at(l list) []int32 { return p.idx[l.off : l.off+l.n] }

// begin and end bracket the construction of an output list at the tail of
// planner.idx.
func (p *planner) begin() int32 { return int32(len(p.idx)) }

func (p *planner) end(off int32) list { return list{off, int32(len(p.idx)) - off} }

// add appends n to the node slab and its index to the list being built.
func (p *planner) add(n node) {
	p.idx = append(p.idx, int32(len(p.nodes)))
	p.nodes = append(p.nodes, n)
}

// fetch initializes a list from the schema-level index: one zero-cost entry
// per matching schema class (Section 7.2's fetch against the schema). It
// returns the fetch's index in planner.fetches, which also serves as the
// interned label of every node descending from it.
func (p *planner) fetch(label string, kind cost.Kind) int32 {
	key := fetchKey{label, kind}
	if id, ok := p.fetchID[key]; ok {
		return id
	}
	var classes []int32
	if kind == cost.Text {
		classes = p.sch.TextClasses(label)
	} else {
		classes = p.sch.StructClasses(label)
	}
	p.stats.Fetches++
	id := int32(len(p.fetches))
	off := p.begin()
	for _, c := range classes {
		p.add(node{class: c, fetch: id})
	}
	p.fetches = append(p.fetches, fetched{label: label, kind: kind, list: p.end(off)})
	p.fetchID[key] = id
	return id
}

// markLeaf returns a copy of l with hasLeaf set: the entries are query-leaf
// matches.
func (p *planner) markLeaf(l list) list {
	off := p.begin()
	for _, i := range p.at(l) {
		n := p.nodes[i]
		n.hasLeaf = true
		p.add(n)
	}
	return p.end(off)
}

// bump returns a copy of l with c added to every entry's cost. Pointer runs
// are shared: the skeleton does not change, only its accumulated cost.
func (p *planner) bump(l list, c cost.Cost) list {
	if c == 0 || l.n == 0 {
		return l
	}
	off := p.begin()
	for _, i := range p.at(l) {
		n := p.nodes[i]
		n.cost = cost.Add(n.cost, c)
		p.add(n)
	}
	return p.end(off)
}

// union merges the segments of its operands per class, keeping the best k
// (Section 7.2, function union, which also merges the match lists of a
// label and its renamings, Section 6.4). Unlike the direct evaluation,
// entries are alternatives (distinct skeletons) and are never
// cost-combined. Capping the union of capped segments keeps exactly what
// capping their plain union keeps, so any number of operands merge in one
// pass: each output segment is a k-way merge of sorted runs. A single
// non-empty operand is returned unchanged.
func (p *planner) union(ls []list) list {
	cur := p.cursors[:0]
	for _, l := range ls {
		if l.n > 0 {
			cur = append(cur, run{pos: l.off, end: l.off + l.n, left: unionRun})
		}
	}
	switch len(cur) {
	case 0:
		return list{}
	case 1:
		return list{cur[0].pos, cur[0].end - cur[0].pos}
	}
	off := p.begin()
	for {
		class, more := schema.NodeID(0), false
		for _, c := range cur {
			if c.pos < c.end {
				if cc := p.nodes[p.idx[c.pos]].class; !more || cc < class {
					class, more = cc, true
				}
			}
		}
		if !more {
			break
		}
		for i := range cur {
			c := &cur[i]
			if c.pos < c.end && p.nodes[p.idx[c.pos]].class == class {
				e := int32(p.segEnd(p.idx[:c.end], int(c.pos)))
				p.runs = append(p.runs, run{pos: c.pos, end: e, left: unionRun})
				c.pos = e
			}
		}
		if len(p.runs) == 1 {
			// The class is in one operand only (struct classes carry one
			// label each, so renamings rarely share one): its segment is
			// capped already.
			r := p.runs[0]
			p.idx = append(p.idx, p.idx[r.pos:r.end]...)
			p.runs = p.runs[:0]
			continue
		}
		p.mergeRuns(node{}, cost.Inf)
	}
	p.cursors = cur[:0]
	return p.end(off)
}

// cand is a candidate pair of a large intersect grid, kept in
// planner.cands until the capping rule decides whether it becomes a node.
// seq is its creation order within the segment; l and r are the two sides.
type cand struct {
	cost    cost.Cost
	seq     int32
	l, r    int32
	hasLeaf bool
}

// run is a sorted run of candidates of one segment: the entries at
// planner.idx[pos:end], each paying add on top of its own cost. In a union
// the candidates are the entries themselves, numbered by their node index.
// In a join or an intersect row they are new entries — copies of the
// ancestor, or pairs with a fixed left node — numbered in the order the
// operation creates them: the head's number is pos + seqOff.
type run struct {
	cost     cost.Cost // the head's cost
	seq      int32     // the head's number
	pos, end int32
	seqOff   int32
	add      cost.Cost
	left     int32 // an intersect row's left node, or joinRun or unionRun
}

const (
	joinRun  = -1
	unionRun = -2
)

func runLess(x, y *run) bool {
	if x.cost != y.cost {
		return x.cost < y.cost
	}
	return x.seq < y.seq
}

// siftRuns restores the min-heap order of h under runLess below c.
func siftRuns(h []run, c int) {
	for {
		m := c
		if l := 2*c + 1; l < len(h) && runLess(&h[l], &h[m]) {
			m = l
		}
		if r := 2*c + 2; r < len(h) && runLess(&h[r], &h[m]) {
			m = r
		}
		if m == c {
			return
		}
		h[c], h[m] = h[m], h[c]
		c = m
	}
}

// head loads the cost and sequence of r's head entry.
func (p *planner) head(r *run) {
	x := p.idx[r.pos]
	r.cost = cost.Add(r.add, p.nodes[x].cost)
	if r.left == unionRun {
		r.seq = x
	} else {
		r.seq = r.pos + r.seqOff
	}
}

// mergeRuns offers the candidates of planner.runs — one class's segments
// in a union, a join ancestor a's descendant segments, or an intersect
// grid's rows — to the capping rule in (cost, number) order and appends the
// kept ones to the output list. A finite cDel adds a join's deletion
// alternative, created after every descendant. Each run is sorted already,
// so this is a k-way merge that stops as soon as the rule can keep nothing
// more: no candidate list is sorted or even built.
func (p *planner) mergeRuns(a node, cDel cost.Cost) {
	h := p.runs
	for i := range h {
		p.head(&h[i])
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftRuns(h, i)
	}
	cp := capper{k: p.k}
	del := !cost.IsInf(cDel)
	for len(h) > 0 || del {
		if del && (len(h) == 0 || cDel < h[0].cost) {
			del = false
			keep, more := cp.take(cDel, false)
			if keep {
				p.emitJoin(a, cDel, false, -1)
			}
			if !more {
				break
			}
			continue
		}
		r := &h[0]
		x, c := p.idx[r.pos], r.cost
		leaf := p.nodes[x].hasLeaf || r.left >= 0 && p.nodes[r.left].hasLeaf
		keep, more := cp.take(c, leaf)
		if keep {
			switch r.left {
			case unionRun:
				p.idx = append(p.idx, x)
			case joinRun:
				p.emitJoin(a, c, leaf, x)
			default:
				p.emitPair(c, leaf, r.left, x)
			}
		}
		if !more {
			break
		}
		if r.pos++; r.pos == r.end {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		} else {
			p.head(r)
		}
		siftRuns(h, 0)
	}
	p.runs = h[:0]
}

// emitJoin appends the copy of ancestor a that points to descendant d, or
// to nothing when d < 0 (the leaf was deleted).
func (p *planner) emitJoin(a node, c cost.Cost, leaf bool, d int32) {
	a.cost, a.hasLeaf, a.kids, a.nkids = c, leaf, int32(len(p.kids)), 0
	if d >= 0 {
		p.kids = append(p.kids, d)
		a.nkids = 1
	}
	p.add(a)
}

// emitPair appends the combination of two same-class skeletons (Section
// 7.2, function intersect): the left one's label, cost c, and the union of
// both pointer runs.
func (p *planner) emitPair(c cost.Cost, leaf bool, l, r int32) {
	nl, nr := p.nodes[l], p.nodes[r]
	n := node{cost: c, class: nl.class, fetch: nl.fetch, kids: int32(len(p.kids)), hasLeaf: leaf}
	p.kids = append(p.kids, p.kids[nl.kids:nl.kids+nl.nkids]...)
	p.kids = append(p.kids, p.kids[nr.kids:nr.kids+nr.nkids]...)
	n.nkids = int32(len(p.kids)) - n.kids
	p.add(n)
}

// join returns, for every ancestor in lA, up to k copies pointing to its k
// cheapest descendants in lD (Section 7.2, function join). lA is always a
// plain fetch list: one entry per schema node with cost zero.
func (p *planner) join(lA, lD list) list {
	return p.outerjoin(lA, lD, cost.Inf)
}

// outerjoin additionally offers the deletion of the leaf at cost cDel with
// an empty pointer set (Section 7.2, function outerjoin).
func (p *planner) outerjoin(lA, lD list, cDel cost.Cost) list {
	as, ds := p.at(lA), p.at(lD)
	off := p.begin()
	j := 0
	for _, ai := range as {
		a := p.nodes[ai]
		bound := p.sch.Bound(a.class)
		// Ancestors in a fetch list are unique per class and ascending but
		// may nest, so j only skips entries at or before a's class; a
		// nested ancestor rescans the tail of its parent's range.
		for j < len(ds) && p.nodes[ds[j]].class <= a.class {
			j++
		}
		// The classes strictly between a and a descendant class cost the
		// same insert sum for every pair of their instances (Section 7.3),
		// so each descendant segment is a sorted run of candidates.
		base := p.sch.PathCost(a.class) + p.sch.InsCost(a.class)
		for x := j; x < len(ds); {
			c := p.nodes[ds[x]].class
			if c > bound {
				break
			}
			e := p.segEnd(ds, x)
			p.runs = append(p.runs, run{
				pos: lD.off + int32(x), end: lD.off + int32(e),
				add: p.sch.PathCost(c) - base, left: joinRun,
			})
			x = e
		}
		p.mergeRuns(a, cDel)
	}
	return p.end(off)
}

// intersect combines same-class segments of both operands: every pair of
// skeletons merges into one whose pointer set is the union (Section 7.2,
// function intersect). The k best pairs per segment survive.
func (p *planner) intersect(lL, lR list) list {
	a, b := p.at(lL), p.at(lR)
	off := p.begin()
	i := 0
	for j := 0; j < len(b); {
		je := p.segEnd(b, j)
		class := p.nodes[b[j]].class
		for i < len(a) && p.nodes[a[i]].class < class {
			i++
		}
		if i >= len(a) || p.nodes[a[i]].class != class {
			j = je
			continue
		}
		ie := p.segEnd(a, i)
		segL, segR := a[i:ie], b[j:je]
		if len(segL)*len(segR) <= 4*p.k {
			// Small grid: every pair is a candidate, created row by row.
			// Each row pairs one left entry with the sorted right segment,
			// so it is a sorted run.
			for x, l := range segL {
				start := lR.off + int32(j)
				p.runs = append(p.runs, run{
					pos: start, end: start + int32(len(segR)),
					seqOff: int32(x*len(segR)) - start,
					add:    p.nodes[l].cost, left: l,
				})
			}
			p.mergeRuns(node{}, cost.Inf)
		} else {
			p.capPairs(p.selectPairs(p.cands[:0], segL, segR))
		}
		i, j = ie, je
	}
	return p.end(off)
}

// appendPair appends the candidate combining skeletons l and r.
func (p *planner) appendPair(cs []cand, l, r int32) []cand {
	nl, nr := &p.nodes[l], &p.nodes[r]
	return append(cs, cand{
		cost:    cost.Add(nl.cost, nr.cost),
		seq:     int32(len(cs)),
		l:       l,
		r:       r,
		hasLeaf: nl.hasLeaf || nr.hasLeaf,
	})
}

// capPairs sorts the candidates of a large intersect grid and appends the
// ones the capping rule keeps as nodes.
func (p *planner) capPairs(cs []cand) {
	slices.SortFunc(cs, func(a, b cand) int {
		if c := cmp.Compare(a.cost, b.cost); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
	cp := capper{k: p.k}
	for _, c := range cs {
		keep, more := cp.take(c.cost, c.hasLeaf)
		if keep {
			p.emitPair(c.cost, c.hasLeaf, c.l, c.r)
		}
		if !more {
			break
		}
	}
	p.cands = cs
}
