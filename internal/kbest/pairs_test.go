package kbest

import (
	"cmp"
	"context"
	"math/rand"
	"slices"
	"testing"

	"approxql/internal/cost"
)

// costRun appends nodes with the given costs and leaf flags to p and
// returns their indices sorted by (cost, index), like a segment.
func costRun(p *planner, costs []int, leaf []bool) []int32 {
	out := make([]int32, len(costs))
	for i, c := range costs {
		out[i] = int32(len(p.nodes))
		p.nodes = append(p.nodes, node{cost: cost.Cost(c), hasLeaf: leaf != nil && leaf[i]})
	}
	slices.SortFunc(out, func(a, b int32) int {
		if c := cmp.Compare(p.nodes[a].cost, p.nodes[b].cost); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return out
}

func testPlanner(k int) *planner {
	p := getPlanner(nil, k, context.Background())
	p.nodes = p.nodes[:0]
	return p
}

func randomCosts(rng *rand.Rand, n int) ([]int, []bool) {
	cs, leaf := make([]int, n), make([]bool, n)
	for i := range cs {
		cs[i] = rng.Intn(20)
		leaf[i] = rng.Intn(2) == 0
	}
	return cs, leaf
}

// TestKCheapestPairsExhaustive checks the frontier selection against the
// sorted full grid: the same pairs in the same (cost, i, j) order.
func TestKCheapestPairsExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		p := testPlanner(1)
		na, nb := 1+rng.Intn(8), 1+rng.Intn(8)
		ca, _ := randomCosts(rng, na)
		cb, _ := randomCosts(rng, nb)
		a, b := costRun(p, ca, nil), costRun(p, cb, nil)
		k := 1 + rng.Intn(na*nb+3)

		got := p.kCheapestPairs(nil, a, b, k)

		var all []pair
		for i := range a {
			for j := range b {
				all = append(all, pair{p.nodes[a[i]].cost + p.nodes[b[j]].cost, int32(i), int32(j)})
			}
		}
		slices.SortFunc(all, func(x, y pair) int {
			if pairLess(&x, &y) {
				return -1
			}
			return 1
		})
		if want := all[:min(k, len(all))]; !slices.Equal(got, want) {
			t.Fatalf("trial %d: got %v, want %v", trial, got, want)
		}
		putPlanner(p)
	}
}

func TestKCheapestPairsEdgeCases(t *testing.T) {
	p := testPlanner(1)
	defer putPlanner(p)
	a := costRun(p, []int{1, 2}, nil)
	if got := p.kCheapestPairs(nil, nil, a, 3); got != nil {
		t.Errorf("empty a: %v", got)
	}
	if got := p.kCheapestPairs(nil, a, nil, 3); got != nil {
		t.Errorf("empty b: %v", got)
	}
	if got := p.kCheapestPairs(nil, a, a, 0); got != nil {
		t.Errorf("k=0: %v", got)
	}
	// k larger than the grid returns every pair exactly once.
	got := p.kCheapestPairs(nil, a, a, 100)
	if len(got) != 4 {
		t.Errorf("full grid: %d pairs, want 4", len(got))
	}
	seen := make(map[[2]int32]bool)
	for _, q := range got {
		if seen[[2]int32{q.i, q.j}] {
			t.Error("duplicate pair emitted")
		}
		seen[[2]int32{q.i, q.j}] = true
	}
}

// TestSelectPairsMatchesSetDedupe checks selectPairs' prefix rule against
// the plain construction: the three selections concatenated, each pair kept
// at its first occurrence, found with a set.
func TestSelectPairsMatchesSetDedupe(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 300; trial++ {
		k := 1 + rng.Intn(6)
		p := testPlanner(k)
		cl, ll := randomCosts(rng, 1+rng.Intn(12))
		cr, lr := randomCosts(rng, 1+rng.Intn(12))
		segL, segR := costRun(p, cl, ll), costRun(p, cr, lr)

		got := p.selectPairs(nil, segL, segR)

		leafOnly := func(seg []int32) []int32 {
			var out []int32
			for _, i := range seg {
				if p.nodes[i].hasLeaf {
					out = append(out, i)
				}
			}
			return out
		}
		var ps [][2]int32
		for _, sel := range [][2][]int32{{segL, segR}, {leafOnly(segL), segR}, {segL, leafOnly(segR)}} {
			for _, q := range p.kCheapestPairs(nil, sel[0], sel[1], k) {
				ps = append(ps, [2]int32{sel[0][q.i], sel[1][q.j]})
			}
		}
		seen := make(map[[2]int32]bool)
		var want []cand
		for _, q := range ps {
			if !seen[q] {
				seen[q] = true
				want = p.appendPair(want, q[0], q[1])
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (k=%d):\n got %v\nwant %v", trial, k, got, want)
		}
		putPlanner(p)
	}
}

func TestFilterLeaf(t *testing.T) {
	p := testPlanner(1)
	defer putPlanner(p)
	seg := costRun(p, []int{3, 1, 2}, []bool{true, false, true})
	leaf, pos := p.leafRun(seg, nil, nil)
	if len(leaf) != 2 || len(pos) != 2 {
		t.Fatalf("leafRun = %v at %v", leaf, pos)
	}
	for x, i := range leaf {
		if !p.nodes[i].hasLeaf || seg[pos[x]] != i {
			t.Errorf("entry %d at %d passed the filter", i, pos[x])
		}
	}
}
