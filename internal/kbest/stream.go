package kbest

import (
	"math"

	"approxql/internal/cost"
)

// Segments grow lazily. A consumer reads a segment through next, which
// computes one more entry when the reader stands on the last computed one.
// Union, join and intersect segments compute their entries from a merge
// heap of cursors into their operand segments; a union of the query root's
// list is the stream of second-level queries.
//
// Every cursor is keyed by its head's cost, or, while lazy, by a lower
// bound on it: the operand segment's bound when nothing was read yet, the
// last head's cost once it was consumed. Only the top of a heap is forced,
// so an operand is read no further than its entries can win, and an
// operand that never reaches the top is never computed at all. Keys are
// (cost, t1, t2) with tie-breaks unique within a heap, so forcing the top
// until it is exact yields the exact order whatever the bounds.

// cursor is a merge-heap entry: a position in a walked segment.
type cursor struct {
	key cost.Cost // the head's cost, or a lower bound on it while lazy
	add cost.Cost // added to the head node's cost
	// t1 and t2 break cost ties: the operand's position in a union, the
	// descendant class in a join (MaxInt32 for a deletion), the pair's
	// positions in an intersect.
	t1, t2 int32
	seg    int32 // the walked segment; -1 for a join's deletion alternative
	cell   int32 // the head's cell; while lazy, the cell before it (-1: none)
	left   int32 // an intersect row's left cell; while lazyRow, the previous row's
	lazy   uint8
}

const (
	lazyHead uint8 = 1 << iota // the head is the entry after cell
	lazyRow                    // the row's left entry is the one after left
)

func cursorLess(x, y *cursor) bool {
	if x.key != y.key {
		return x.key < y.key
	}
	if x.t1 != y.t1 {
		return x.t1 < y.t1
	}
	return x.t2 < y.t2
}

// siftDown restores the min-heap order of h below c.
func siftDown(h []cursor, c int) {
	for {
		m := c
		if l := 2*c + 1; l < len(h) && cursorLess(&h[l], &h[m]) {
			m = l
		}
		if r := 2*c + 2; r < len(h) && cursorLess(&h[r], &h[m]) {
			m = r
		}
		if m == c {
			return
		}
		h[c], h[m] = h[m], h[c]
		c = m
	}
}

func heapify(h []cursor) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
}

func pushCursor(h []cursor, x cursor) []cursor {
	h = append(h, x)
	for c := len(h) - 1; c > 0; {
		up := (c - 1) / 2
		if !cursorLess(&h[c], &h[up]) {
			break
		}
		h[c], h[up] = h[up], h[c]
		c = up
	}
	return h
}

// popTop removes the top of h.
func popTop(h []cursor) []cursor {
	h[0] = h[len(h)-1]
	h = h[:len(h)-1]
	siftDown(h, 0)
	return h
}

// push appends node x as the last entry of segment s.
func (p *planner) push(s, x int32) {
	c := int32(len(p.cells))
	p.cells = append(p.cells, cell{node: x, next: -1})
	if sg := &p.segs[s]; sg.last >= 0 {
		p.cells[sg.last].next = c
		sg.last = c
	} else {
		sg.first, sg.last = c, c
	}
}

// after returns the cell after c in segment s, or its first when c < 0;
// -1 when it is not computed (yet).
func (p *planner) after(s, c int32) int32 {
	if c < 0 {
		return p.segs[s].first
	}
	return p.cells[c].next
}

// next is after, growing s by one entry when c is its last computed one;
// -1 when s has no further entry.
func (p *planner) next(s, c int32) int32 {
	if nx := p.after(s, c); nx >= 0 || p.segs[s].done {
		return nx
	}
	p.grow(s)
	return p.after(s, c)
}

func (p *planner) costAt(c int32) cost.Cost { return p.nodes[p.cells[c].node].cost }

// force resolves a lazy cursor's head, reading the walked segments (and,
// for a lazy intersect row, left, the left segment) one entry further. It
// reports false when the walked segment has no further entry.
func (p *planner) force(left int32, cu *cursor) bool {
	if cu.lazy&lazyRow != 0 {
		if cu.left = p.next(left, cu.left); cu.left < 0 {
			return false
		}
		cu.add = p.costAt(cu.left)
	}
	if cu.cell = p.next(cu.seg, cu.cell); cu.cell < 0 {
		return false
	}
	cu.key = cost.Add(cu.add, p.costAt(cu.cell))
	cu.lazy = 0
	return true
}

// grow computes the next entry of segment s, or marks s done.
func (p *planner) grow(s int32) {
	sg := p.segs[s]
	if sg.op == opBump {
		c := p.next(sg.a, sg.b)
		if c < 0 {
			p.segs[s].done = true
			return
		}
		n := p.nodes[p.cells[c].node]
		if n.cost = cost.Add(n.cost, sg.c); cost.IsInf(n.cost) {
			p.segs[s].done = true
			return
		}
		p.segs[s].b = c
		p.push(s, p.newNode(n))
		return
	}
	if sg.heap < 0 {
		sg.heap = p.initHeap(s)
	}
	// Forcing a cursor grows operand segments, never s itself, so h is
	// this call's alone until it is stored back.
	h := p.heaps[sg.heap]
	for len(h) > 0 {
		top := &h[0]
		if top.lazy != 0 {
			if p.force(sg.a, top) {
				siftDown(h, 0)
			} else {
				h = popTop(h)
			}
			continue
		}
		if cost.IsInf(top.key) {
			break
		}
		switch sg.op {
		case opUnion:
			p.push(s, p.cells[top.cell].node)
			top.lazy = lazyHead
		case opJoin:
			if top.seg < 0 {
				p.emitJoin(s, sg.a, top.key, -1)
				h = popTop(h)
			} else {
				p.emitJoin(s, sg.a, top.key, p.cells[top.cell].node)
				top.lazy = lazyHead
			}
		case opIntersect:
			// The Lawler/Eppstein successors of pair (i, j): (i, j+1),
			// and (i+1, 0) when j = 0. Each pair has one predecessor, so
			// none enters the frontier twice, and the frontier holds at
			// most one pair per row.
			row := *top
			p.emitPair(s, row.key, p.cells[row.left].node, p.cells[row.cell].node)
			top.lazy, top.t2 = lazyHead, row.t2+1
			siftDown(h, 0)
			if row.t2 == 0 {
				h = pushCursor(h, cursor{key: row.key, t1: row.t1 + 1, seg: row.seg, cell: -1, left: row.left, lazy: lazyHead | lazyRow})
			}
		}
		// A consumed union or join cursor keeps its key, a lower bound on
		// its next head, and so stays on top until forced.
		p.heaps[sg.heap] = h
		return
	}
	p.heaps[sg.heap] = h[:0]
	p.segs[s].done = true
}

// initHeap builds the merge heap of segment s, every cursor lazy and keyed
// by its operand's lower bound, and returns its index in planner.heaps.
func (p *planner) initHeap(s int32) int32 {
	id := p.nheaps
	if int(id) == len(p.heaps) {
		p.heaps = append(p.heaps, nil)
	}
	p.nheaps++
	h := p.heaps[id][:0]
	sg := p.segs[s]
	switch sg.op {
	case opUnion:
		for i, o := range p.opnds[sg.a : sg.a+sg.b] {
			h = append(h, cursor{key: p.segs[o].lb, t1: int32(i), seg: o, cell: -1, lazy: lazyHead})
		}
	case opJoin:
		base := p.sch.PathCost(sg.class) + p.sch.InsCost(sg.class)
		for _, d := range p.idx[sg.b : sg.b+sg.n] {
			dc := p.segs[d].class
			add := p.sch.PathCost(dc) - base
			h = append(h, cursor{key: cost.Add(add, p.segs[d].lb), add: add, t1: dc, seg: d, cell: -1, lazy: lazyHead})
		}
		if !cost.IsInf(sg.c) {
			// The deletion comes after every descendant of equal cost.
			h = append(h, cursor{key: sg.c, t1: math.MaxInt32, seg: -1})
		}
	case opIntersect:
		h = append(h, cursor{key: sg.lb, seg: sg.b, cell: -1, left: -1, lazy: lazyHead | lazyRow})
	}
	heapify(h)
	p.heaps[id] = h
	p.segs[s].heap = id
	return id
}

// emitJoin appends to segment s the copy of ancestor node a that points to
// descendant node d, or to nothing when d < 0 (the leaf was deleted).
func (p *planner) emitJoin(s, a int32, c cost.Cost, d int32) {
	n := p.nodes[a]
	n.cost, n.kids, n.nkids = c, int32(len(p.kids)), 0
	if d >= 0 {
		p.kids = append(p.kids, d)
		n.nkids, n.hasLeaf = 1, p.nodes[d].hasLeaf
	}
	p.push(s, p.newNode(n))
}

// emitPair appends to segment s the combination of two same-class
// skeletons (Section 7.2, function intersect): the left one's label, cost
// c, and the union of both pointer runs.
func (p *planner) emitPair(s int32, c cost.Cost, l, r int32) {
	nl, nr := p.nodes[l], p.nodes[r]
	n := node{cost: c, class: nl.class, fetch: nl.fetch, kids: int32(len(p.kids)), hasLeaf: nl.hasLeaf || nr.hasLeaf}
	p.kids = append(p.kids, p.kids[nl.kids:nl.kids+nl.nkids]...)
	p.kids = append(p.kids, p.kids[nr.kids:nr.kids+nr.nkids]...)
	n.nkids = int32(len(p.kids)) - n.kids
	p.push(s, p.newNode(n))
}

// pull returns the next second-level query: the next node of the root
// segment (plan) that has a leaf match; -1 when there is none.
func (p *planner) pull() int32 {
	for {
		c := p.next(p.root, p.rootAt)
		if c < 0 {
			return -1
		}
		p.rootAt = c
		if x := p.cells[c].node; p.nodes[x].hasLeaf {
			return x
		}
	}
}
