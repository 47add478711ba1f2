package kbest

import (
	"approxql/internal/cost"
)

// The adapted list operations of Section 7.2, made lazy. Each operation
// appends its output list to planner.idx and builds the list's structure at
// once — which classes it holds and, per class, a segment that knows its
// operands and a lower bound on its costs — but computes no entry: entries
// are computed when a consumer reads them (stream.go). Segments are never
// changed by a later operation, so lists share them freely. Operations
// never nest: each completes its output list before the next one starts.

// at returns the segment indices of l. The slice aliases planner.idx and
// stays valid (if stale) across later appends, since list contents never
// change.
func (p *planner) at(l list) []int32 { return p.idx[l.off : l.off+l.n] }

// begin and end bracket the construction of an output list at the tail of
// planner.idx.
func (p *planner) begin() int32 { return int32(len(p.idx)) }

func (p *planner) end(off int32) list { return list{off, int32(len(p.idx)) - off} }

// addSeg appends segment s to the segment slab and to the list being built.
func (p *planner) addSeg(s seg) {
	p.idx = append(p.idx, p.newSeg(s))
}

func (p *planner) newSeg(s seg) int32 {
	s.first, s.last, s.heap = -1, -1, -1
	p.segs = append(p.segs, s)
	return int32(len(p.segs) - 1)
}

// newNode appends n to the node slab and returns its index.
func (p *planner) newNode(n node) int32 {
	p.nodes = append(p.nodes, n)
	return int32(len(p.nodes) - 1)
}

// fetch looks up the schema-level index: one zero-cost node per matching
// schema class (Section 7.2's fetch against the schema). It returns the
// fetch's index in planner.fetches, which also serves as the interned label
// of every node descending from it.
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
	off := int32(len(p.nodes))
	for _, c := range classes {
		p.newNode(node{class: c, fetch: id})
	}
	p.fetches = append(p.fetches, fetched{label: label, kind: kind, off: off, n: int32(len(classes))})
	p.fetchID[key] = id
	return id
}

// leafList returns the fetch's nodes as query-leaf matches: a list of
// one-entry segments with hasLeaf set.
func (p *planner) leafList(f int32) list {
	fe := p.fetches[f]
	if fe.hasLeafList {
		return fe.leaf
	}
	off := p.begin()
	for i := fe.off; i < fe.off+fe.n; i++ {
		n := p.nodes[i]
		n.hasLeaf = true
		s := p.newSeg(seg{class: n.class, op: opStatic, done: true})
		p.push(s, p.newNode(n))
		p.idx = append(p.idx, s)
	}
	l := p.end(off)
	p.fetches[f].leaf, p.fetches[f].hasLeafList = l, true
	return l
}

// bump returns l with c added to every entry's cost: one offset view per
// segment. The skeletons do not change, only their accumulated cost.
func (p *planner) bump(l list, c cost.Cost) list {
	if c == 0 || l.n == 0 {
		return l
	}
	off := p.begin()
	for _, s := range p.at(l) {
		src := &p.segs[s]
		p.addSeg(seg{class: src.class, op: opBump, lb: cost.Add(src.lb, c), a: s, b: -1, c: c})
	}
	return p.end(off)
}

// union merges its operands per class (Section 7.2, function union, which
// also merges the match lists of a label and its renamings, Section 6.4).
// Unlike the direct evaluation, entries are alternatives (distinct
// skeletons) and are never cost-combined: a class found in several operands
// becomes one segment merging theirs, and a class found in one keeps its
// segment. A single non-empty operand is returned unchanged.
func (p *planner) union(ls []list) list {
	cur := p.ucur[:0]
	for _, l := range ls {
		if l.n > 0 {
			cur = append(cur, l)
		}
	}
	switch len(cur) {
	case 0:
		return list{}
	case 1:
		return cur[0]
	}
	off := p.begin()
	for {
		class, more := int32(0), false
		for _, c := range cur {
			if c.n > 0 {
				if cc := p.segs[p.idx[c.off]].class; !more || cc < class {
					class, more = cc, true
				}
			}
		}
		if !more {
			break
		}
		o := int32(len(p.opnds))
		lb := cost.Inf
		for i := range cur {
			c := &cur[i]
			if c.n > 0 && p.segs[p.idx[c.off]].class == class {
				s := p.idx[c.off]
				p.opnds = append(p.opnds, s)
				lb = min(lb, p.segs[s].lb)
				c.off++
				c.n--
			}
		}
		if n := int32(len(p.opnds)) - o; n > 1 {
			p.addSeg(seg{class: class, op: opUnion, lb: lb, a: o, b: n})
		} else {
			// The class is in one operand only (struct classes carry one
			// label each, so renamings rarely share one).
			p.idx = append(p.idx, p.opnds[o])
			p.opnds = p.opnds[:o]
		}
	}
	p.ucur = cur[:0]
	return p.end(off)
}

// join returns, for every ancestor of fetch f, a segment of copies pointing
// to its descendants in lD (Section 7.2, function join).
func (p *planner) join(f int32, lD list) list {
	return p.outerjoin(f, lD, cost.Inf)
}

// outerjoin additionally offers the deletion of the leaf at cost cDel with
// an empty pointer set (Section 7.2, function outerjoin).
func (p *planner) outerjoin(f int32, lD list, cDel cost.Cost) list {
	fe := p.fetches[f]
	ds := p.at(lD)
	off := p.begin()
	j := 0
	for ai := fe.off; ai < fe.off+fe.n; ai++ {
		a := p.nodes[ai].class
		bound := p.sch.Bound(a)
		// Ancestors in a fetch are unique per class and ascending but may
		// nest, so j only skips segments at or before a's class; a nested
		// ancestor rescans the tail of its parent's range.
		for j < len(ds) && p.segs[ds[j]].class <= a {
			j++
		}
		// The classes strictly between a and a descendant class cost the
		// same insert sum for every pair of their instances (Section 7.3),
		// so each descendant segment contributes its entries in order.
		base := p.sch.PathCost(a) + p.sch.InsCost(a)
		lb, e := cDel, j
		for ; e < len(ds); e++ {
			d := &p.segs[ds[e]]
			if d.class > bound {
				break
			}
			lb = min(lb, cost.Add(p.sch.PathCost(d.class)-base, d.lb))
		}
		if e == j && cost.IsInf(cDel) {
			continue
		}
		p.addSeg(seg{class: a, op: opJoin, lb: lb, a: ai, b: lD.off + int32(j), n: int32(e - j), c: cDel})
	}
	return p.end(off)
}

// intersect combines same-class segments of both operands: every pair of
// skeletons merges into one whose pointer set is the union (Section 7.2,
// function intersect).
func (p *planner) intersect(lL, lR list) list {
	a, b := p.at(lL), p.at(lR)
	off := p.begin()
	i := 0
	for _, r := range b {
		class := p.segs[r].class
		for i < len(a) && p.segs[a[i]].class < class {
			i++
		}
		if i < len(a) && p.segs[a[i]].class == class {
			l := a[i]
			p.addSeg(seg{class: class, op: opIntersect, lb: cost.Add(p.segs[l].lb, p.segs[r].lb), a: l, b: r})
		}
	}
	return p.end(off)
}
