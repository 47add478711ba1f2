package kbest

import (
	"context"
	"sync"
	"unsafe"

	"approxql/internal/cost"
	"approxql/internal/lang"
	"approxql/internal/schema"
)

// planner is the state of one enumeration: the node, segment and cell
// slabs, the merge heaps, the memo tables of the dynamic programming, and
// the scratch of the list operations and of export. None of the slabs holds
// a pointer, so the garbage collector never scans them. Planners are pooled
// across queries; a warm run reuses every buffer.
type planner struct {
	sch   *schema.Schema
	ctx   context.Context
	stats Stats

	nodes []node  // every entry created by this run, in creation order
	kids  []int32 // pointer runs: skeleton children as node indices
	segs  []seg
	cells []cell
	idx   []int32 // list runs: segment indices
	opnds []int32 // union operand runs: segment indices

	// heaps holds the merge heaps of this run's segments, heaps[:nheaps]
	// in use; the capacity of every slot is kept for the next run.
	heaps  [][]cursor
	nheaps int32

	fetches   []fetched
	fetchID   map[fetchKey]int32
	innerMemo map[*lang.XNode]list
	evalMemo  map[evalKey]list

	// root is the segment merging the query root's list, and rootAt the
	// cell of it pulled last (-1 before the first).
	root, rootAt int32

	// Scratch of the list operations and of export.
	variants []list
	ucur     []list
	sel      []int32
	order    []int32
	exported map[int32]*Entry
	// ents and ptrs are the unused tails of the chunks exported Entries
	// and their pointer sets are carved from; they belong to the caller
	// once handed out, so putPlanner drops them rather than reuse them.
	ents []Entry
	ptrs []*Entry
}

// fetched is one schema fetch: its label and kind, interned by position in
// planner.fetches, the run of its zero-cost nodes in planner.nodes (one per
// matching class, by ascending class), and the leaf-marked list of
// one-entry segments once a query leaf asked for it.
type fetched struct {
	label       string
	kind        cost.Kind
	off, n      int32
	leaf        list
	hasLeafList bool
}

type fetchKey struct {
	label string
	kind  cost.Kind
}

type evalKey struct {
	node  *lang.XNode
	fetch int32
}

// plannerPool recycles planners. Like eval's chunk pool it is a
// mutex-guarded stack under a byte budget: puts happen once per
// enumeration, and the budget bounds what idle planners retain however
// large a past query made them.
var plannerPool struct {
	mu    sync.Mutex
	free  []*planner
	bytes int // summed footprint of free
}

// plannerPoolBytes bounds the memory idle planners retain.
const plannerPoolBytes = 8 << 20

// maxPooledMapEntries keeps planners whose memo maps grew large out of the
// pool: a map keeps its peak size, and clearing it would cost that size on
// every later run.
const maxPooledMapEntries = 1 << 12

// footprint is the memory held by p's slabs and scratch, in bytes. The memo
// maps are left out; putPlanner bounds them by their entry count.
func (p *planner) footprint() int {
	b := cap(p.nodes)*int(unsafe.Sizeof(node{})) +
		(cap(p.kids)+cap(p.idx)+cap(p.opnds)+cap(p.sel)+cap(p.order))*4 +
		cap(p.segs)*int(unsafe.Sizeof(seg{})) +
		cap(p.cells)*int(unsafe.Sizeof(cell{})) +
		cap(p.fetches)*int(unsafe.Sizeof(fetched{})) +
		(cap(p.variants)+cap(p.ucur))*int(unsafe.Sizeof(list{})) +
		cap(p.heaps)*int(unsafe.Sizeof([]cursor(nil)))
	for _, h := range p.heaps {
		b += cap(h) * int(unsafe.Sizeof(cursor{}))
	}
	return b
}

// getPlanner returns an empty planner for one run over sch, preferring a
// pooled one.
func getPlanner(sch *schema.Schema, ctx context.Context) *planner {
	plannerPool.mu.Lock()
	var p *planner
	if n := len(plannerPool.free); n > 0 {
		p = plannerPool.free[n-1]
		plannerPool.free[n-1] = nil
		plannerPool.free = plannerPool.free[:n-1]
		plannerPool.bytes -= p.footprint()
	}
	plannerPool.mu.Unlock()
	if p == nil {
		p = &planner{
			fetchID:   make(map[fetchKey]int32),
			innerMemo: make(map[*lang.XNode]list),
			evalMemo:  make(map[evalKey]list),
			exported:  make(map[int32]*Entry),
		}
	}
	p.sch, p.ctx = sch, ctx
	return p
}

// putPlanner resets p and shelves it, unless that would take the pool past
// plannerPoolBytes. Nodes, segments and memo entries of the finished run
// are dropped; the exported Entries do not reference them.
func putPlanner(p *planner) {
	p.sch, p.ctx, p.stats = nil, nil, Stats{}
	p.nodes, p.kids, p.idx, p.opnds = p.nodes[:0], p.kids[:0], p.idx[:0], p.opnds[:0]
	p.segs, p.cells = p.segs[:0], p.cells[:0]
	for i := range p.heaps[:p.nheaps] {
		p.heaps[i] = p.heaps[i][:0]
	}
	p.nheaps = 0
	p.variants, p.sel, p.order = p.variants[:0], p.sel[:0], p.order[:0]
	p.ents, p.ptrs = nil, nil
	mapEntries := len(p.fetchID) + len(p.innerMemo) + len(p.evalMemo) + len(p.exported)
	clear(p.fetches)
	p.fetches = p.fetches[:0]
	clear(p.fetchID)
	clear(p.innerMemo)
	clear(p.evalMemo)
	clear(p.exported)
	if mapEntries > maxPooledMapEntries {
		return
	}
	b := p.footprint()
	plannerPool.mu.Lock()
	defer plannerPool.mu.Unlock()
	if plannerPool.bytes+b > plannerPoolBytes {
		return
	}
	plannerPool.free = append(plannerPool.free, p)
	plannerPool.bytes += b
}
