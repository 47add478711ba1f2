package kbest

import "approxql/internal/cost"

// pair is a pair (i, j) of positions into two cost-sorted segments, with
// the summed cost of the two entries.
type pair struct {
	cost cost.Cost
	i, j int32
}

// pairLess orders pairs by (cost, i, j). The key strictly grows along both
// axes of the grid, which is what lets kCheapestPairs and selectPairs reason
// about prefixes of the order.
func pairLess(x, y *pair) bool {
	if x.cost != y.cost {
		return x.cost < y.cost
	}
	if x.i != y.i {
		return x.i < y.i
	}
	return x.j < y.j
}

// kCheapestPairs appends to dst the up to k pairs of positions in a and b
// with the smallest (a[i].cost + b[j].cost, i, j), in ascending order. Both
// runs must be sorted by ascending cost. It runs the frontier-heap
// selection in O(k log k) instead of enumerating the full |a|·|b| grid,
// which keeps the adapted intersect within the paper's per-segment
// k²·log k bound even for large k. Each pair enters the frontier from one
// predecessor only — (i, j-1), or (i-1, 0) in the first column — whose key
// is smaller, so no pair is pushed twice and no visited set is needed.
func (p *planner) kCheapestPairs(dst []pair, a, b []int32, k int) []pair {
	if len(a) == 0 || len(b) == 0 || k <= 0 {
		return dst
	}
	at := func(i, j int32) pair {
		return pair{cost: cost.Add(p.nodes[a[i]].cost, p.nodes[b[j]].cost), i: i, j: j}
	}
	h := pushPair(p.frontier[:0], at(0, 0))
	for n := 0; n < k && len(h) > 0; n++ {
		var top pair
		top, h = popPair(h)
		dst = append(dst, top)
		if int(top.j)+1 < len(b) {
			h = pushPair(h, at(top.i, top.j+1))
		}
		if top.j == 0 && int(top.i)+1 < len(a) {
			h = pushPair(h, at(top.i+1, 0))
		}
	}
	p.frontier = h
	return dst
}

// pushPair and popPair maintain h as a binary min-heap under pairLess.
func pushPair(h []pair, x pair) []pair {
	h = append(h, x)
	for c := len(h) - 1; c > 0; {
		up := (c - 1) / 2
		if !pairLess(&h[c], &h[up]) {
			break
		}
		h[c], h[up] = h[up], h[c]
		c = up
	}
	return h
}

func popPair(h []pair) (pair, []pair) {
	top := h[0]
	h[0] = h[len(h)-1]
	h = h[:len(h)-1]
	for c := 0; ; {
		m := c
		if l := 2*c + 1; l < len(h) && pairLess(&h[l], &h[m]) {
			m = l
		}
		if r := 2*c + 2; r < len(h) && pairLess(&h[r], &h[m]) {
			m = r
		}
		if m == c {
			break
		}
		h[c], h[m] = h[m], h[c]
		c = m
	}
	return top, h
}

// selectPairs appends to cs the candidates of a large intersect grid: the k
// cheapest pairs, then the k cheapest whose left side has a leaf match, then
// the k cheapest whose right side has one, each pair once. Together they
// hold everything the capping rule can keep. Each of the three selections
// is a prefix of the (cost, i, j) order of its own sub-grid, so a pair is
// already taken exactly when its key is at most the last key of an earlier
// prefix whose sub-grid it belongs to.
func (p *planner) selectPairs(cs []cand, segL, segR []int32) []cand {
	k := p.k
	leafL, posL := p.leafRun(segL, p.leafL[:0], p.posL[:0])
	leafR, posR := p.leafRun(segR, p.leafR[:0], p.posR[:0])
	p.leafL, p.posL, p.leafR, p.posR = leafL, posL, leafR, posR

	ps := p.kCheapestPairs(p.pairs[:0], segL, segR, k)
	n1 := len(ps)
	ps = p.kCheapestPairs(ps, leafL, segR, k)
	n2 := len(ps)
	for x := n1; x < n2; x++ {
		ps[x].i = posL[ps[x].i]
	}
	ps = p.kCheapestPairs(ps, segL, leafR, k)
	for x := n2; x < len(ps); x++ {
		ps[x].j = posR[ps[x].j]
	}
	p.pairs = ps

	within := func(q pair, prefix []pair) bool { return !pairLess(&prefix[len(prefix)-1], &q) }
	all, leftLeaf := ps[:n1], ps[n1:n2]
	for x, q := range ps {
		switch {
		case x < n1:
		case within(q, all):
			continue
		case x >= n2 && p.nodes[segL[q.i]].hasLeaf && within(q, leftLeaf):
			continue
		}
		cs = p.appendPair(cs, segL[q.i], segR[q.j])
	}
	return cs
}

// leafRun appends to leaves the entries of seg with a leaf match, in order,
// and to pos their positions in seg.
func (p *planner) leafRun(seg, leaves, pos []int32) ([]int32, []int32) {
	for x, i := range seg {
		if p.nodes[i].hasLeaf {
			leaves = append(leaves, i)
			pos = append(pos, int32(x))
		}
	}
	return leaves, pos
}
