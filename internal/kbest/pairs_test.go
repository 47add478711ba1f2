package kbest

import (
	"cmp"
	"context"
	"math/rand"
	"slices"
	"testing"

	"approxql/internal/cost"
)

// costSeg appends a static segment of class 0 holding nodes with the given
// costs and leaf flags, sorted by cost, each pointing to itself, so that a
// pair's pointer run names its two sides. It returns the segment and its
// nodes in order.
func costSeg(p *planner, costs []int) (int32, []int32) {
	nodes := make([]int32, len(costs))
	for i, c := range costs {
		x := int32(len(p.nodes))
		p.nodes = append(p.nodes, node{cost: cost.Cost(c), kids: int32(len(p.kids)), nkids: 1})
		p.kids = append(p.kids, x)
		nodes[i] = x
	}
	slices.SortStableFunc(nodes, func(a, b int32) int { return cmp.Compare(p.nodes[a].cost, p.nodes[b].cost) })
	s := p.newSeg(seg{op: opStatic, done: true})
	for _, x := range nodes {
		p.push(s, x)
	}
	return s, nodes
}

func testPlanner() *planner {
	return getPlanner(nil, context.Background())
}

// pairOf is a pair of positions into two segments, with their summed cost.
type pairOf struct {
	cost cost.Cost
	i, j int
}

// TestKCheapestPairsExhaustive checks the intersect segment's successor
// frontier against the sorted full grid: the same pairs in the same
// (cost, i, j) order, whatever prefix is read.
func TestKCheapestPairsExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		p := testPlanner()
		ca, cb := make([]int, 1+rng.Intn(8)), make([]int, 1+rng.Intn(8))
		for i := range ca {
			ca[i] = rng.Intn(20)
		}
		for i := range cb {
			cb[i] = rng.Intn(20)
		}
		sa, a := costSeg(p, ca)
		sb, b := costSeg(p, cb)
		x := p.newSeg(seg{op: opIntersect, a: sa, b: sb})

		var all []pairOf
		for i := range a {
			for j := range b {
				all = append(all, pairOf{p.nodes[a[i]].cost + p.nodes[b[j]].cost, i, j})
			}
		}
		slices.SortFunc(all, func(x, y pairOf) int {
			return cmp.Or(cmp.Compare(x.cost, y.cost), cmp.Compare(x.i, y.i), cmp.Compare(x.j, y.j))
		})
		var got []pairOf
		for c := p.next(x, -1); c >= 0; c = p.next(x, c) {
			n := p.cells[c].node
			kids := p.kids[p.nodes[n].kids : p.nodes[n].kids+p.nodes[n].nkids]
			got = append(got, pairOf{p.nodes[n].cost, slices.Index(a, kids[0]), slices.Index(b, kids[1])})
		}
		if !slices.Equal(got, all) {
			t.Fatalf("trial %d: got %v, want %v", trial, got, all)
		}
		putPlanner(p)
	}
}

// TestKCheapestPairsEdgeCases: an empty side yields no pair, and every pair
// of a grid is yielded exactly once.
func TestKCheapestPairsEdgeCases(t *testing.T) {
	p := testPlanner()
	defer putPlanner(p)
	a, _ := costSeg(p, []int{1, 2})
	empty, _ := costSeg(p, nil)
	for _, x := range []int32{
		p.newSeg(seg{op: opIntersect, a: empty, b: a}),
		p.newSeg(seg{op: opIntersect, a: a, b: empty}),
	} {
		if c := p.next(x, -1); c >= 0 || !p.segs[x].done {
			t.Errorf("intersect with an empty side yielded an entry")
		}
	}
	x := p.newSeg(seg{op: opIntersect, a: a, b: a})
	seen := make(map[[2]int32]bool)
	for c := p.next(x, -1); c >= 0; c = p.next(x, c) {
		n := p.nodes[p.cells[c].node]
		k := [2]int32{p.kids[n.kids], p.kids[n.kids+1]}
		if seen[k] {
			t.Error("duplicate pair emitted")
		}
		seen[k] = true
	}
	if len(seen) != 4 {
		t.Errorf("full grid: %d pairs, want 4", len(seen))
	}
}
