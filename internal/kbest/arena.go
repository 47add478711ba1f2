package kbest

import (
	"context"
	"sync"
	"unsafe"

	"approxql/internal/cost"
	"approxql/internal/lang"
	"approxql/internal/schema"
)

// planner is the state of one planning run (SecondLevel): the node slab,
// the pointer and list slabs, the memo tables of the dynamic programming,
// and the scratch of the list operations. None of the slabs holds a
// pointer, so the garbage collector never scans them. Planners are pooled
// across rounds and queries; a warm run reuses every buffer.
type planner struct {
	sch   *schema.Schema
	k     int
	ctx   context.Context
	stats Stats

	nodes []node  // every entry created by this run, in creation order
	kids  []int32 // pointer runs: skeleton children as node indices
	idx   []int32 // list runs: node indices

	fetches   []fetched
	fetchID   map[fetchKey]int32
	innerMemo map[*lang.XNode]list
	evalMemo  map[evalKey]list

	// Scratch of the list operations and of SecondLevel's export.
	variants        []list
	runs, cursors   []run
	cands           []cand
	pairs, frontier []pair
	leafL, posL     []int32
	leafR, posR     []int32
	sel, order      []int32
	exported        map[int32]int32
}

// fetched is one schema fetch: its label and kind, interned by position in
// planner.fetches, and its list.
type fetched struct {
	label string
	kind  cost.Kind
	list  list
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
// mutex-guarded stack under a byte budget: puts happen once per planning
// round, and the budget bounds what idle planners retain however large a
// past query made them.
var plannerPool struct {
	mu    sync.Mutex
	free  []*planner
	bytes int // summed footprint of free
}

// plannerPoolBytes bounds the memory idle planners retain.
const plannerPoolBytes = 8 << 20

// footprint is the memory held by p's slabs and scratch, in bytes. The memo
// maps are left out: they hold one entry per query node and fetch.
func (p *planner) footprint() int {
	return cap(p.nodes)*int(unsafe.Sizeof(node{})) +
		(cap(p.kids)+cap(p.idx)+cap(p.leafL)+cap(p.posL)+cap(p.leafR)+cap(p.posR)+cap(p.sel)+cap(p.order))*4 +
		cap(p.fetches)*int(unsafe.Sizeof(fetched{})) +
		(cap(p.runs)+cap(p.cursors))*int(unsafe.Sizeof(run{})) +
		cap(p.variants)*int(unsafe.Sizeof(list{})) +
		cap(p.cands)*int(unsafe.Sizeof(cand{})) +
		(cap(p.pairs)+cap(p.frontier))*int(unsafe.Sizeof(pair{}))
}

// getPlanner returns an empty planner for one run over sch with segment
// capacity k, preferring a pooled one.
func getPlanner(sch *schema.Schema, k int, ctx context.Context) *planner {
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
			exported:  make(map[int32]int32),
		}
	}
	p.sch, p.k, p.ctx = sch, k, ctx
	return p
}

// putPlanner resets p and shelves it, unless that would take the pool past
// plannerPoolBytes. Nodes, lists and memo entries of the finished run are
// dropped; the exported Entries do not reference them.
func putPlanner(p *planner) {
	p.sch, p.ctx, p.stats = nil, nil, Stats{}
	p.nodes, p.kids, p.idx = p.nodes[:0], p.kids[:0], p.idx[:0]
	p.variants, p.runs = p.variants[:0], p.runs[:0]
	clear(p.fetches)
	p.fetches = p.fetches[:0]
	clear(p.fetchID)
	clear(p.innerMemo)
	clear(p.evalMemo)
	clear(p.exported)
	b := p.footprint()
	plannerPool.mu.Lock()
	defer plannerPool.mu.Unlock()
	if plannerPool.bytes+b > plannerPoolBytes {
		return
	}
	plannerPool.free = append(plannerPool.free, p)
	plannerPool.bytes += b
}
