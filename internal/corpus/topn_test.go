package corpus

import (
	"math/rand"
	"slices"
	"testing"

	"approxql/internal/cost"
	"approxql/internal/xmltree"
)

// TestTopNKeepsBest offers random hits with many cost and document ties in
// random order, and checks the gather heap's contract: Offer keeps the n
// best under (cost, doc, root) and stops a shard only for a hit costlier
// than the n-th; Bound is cost.Inf until n hits are held and never
// increases afterwards, as exec.Config.Bound requires; Sorted drains in
// (cost, doc, root) order.
func TestTopNKeepsBest(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for trial := 0; trial < 200; trial++ {
		hits := make([]Hit, rng.Intn(60))
		for i := range hits {
			hits[i] = Hit{
				Doc:  DocID(rng.Intn(4)),
				Root: xmltree.NodeID(rng.Intn(1000)),
				Cost: cost.Cost(rng.Intn(6)),
			}
		}
		n := rng.Intn(12) - 1 // n <= 0 collects everything
		h := newTopN[Hit](n)
		prev := cost.Inf
		for i, hit := range hits {
			before := h.Bound()
			more := h.Offer(hit)
			full := n > 0 && i >= n
			if want := !full || hit.Cost <= before; more != want {
				t.Fatalf("trial %d: Offer(%+v) at bound %d = %v, want %v", trial, hit, before, more, want)
			}
			b := h.Bound()
			if held := min(i+1, max(n, 0)); n <= 0 || held < n {
				if b != cost.Inf {
					t.Fatalf("trial %d: bound %d with %d of %d hits held", trial, b, held, n)
				}
			} else if b > prev {
				t.Fatalf("trial %d: bound rose from %d to %d", trial, prev, b)
			}
			prev = b
		}
		want := slices.Clone(hits)
		slices.SortFunc(want, func(a, b Hit) int {
			if less(a, b) {
				return -1
			}
			if less(b, a) {
				return 1
			}
			return 0
		})
		if n > 0 && n < len(want) {
			want = want[:n]
		}
		if got := h.Sorted(); !slices.Equal(got, want) {
			t.Fatalf("trial %d (n = %d):\n got %v\nwant %v", trial, n, got, want)
		}
	}
}
