package kbest_test

import (
	"math/rand"
	"testing"

	"approxql/internal/eval"
	"approxql/internal/exec"
	"approxql/internal/lang"
	"approxql/internal/schema"
)

// fuzzMaxK caps the second-level queries a fuzzed run may pull. Queries
// that repeat a selector label reach one skeleton along many paths, and the
// plan stream yields every path: the fuzzer finds 15-node trees whose
// all-results run pulls two million skeletons, 99 % of them repeats, to
// deliver three roots, in seconds. Such inputs are skipped, visibly, rather
// than compared.
const fuzzMaxK = 1 << 14

// FuzzSchemaMatchesReference checks the schema-driven strategy against the
// literal reference evaluator of Definitions 1–12 on fuzzer-chosen cost
// models, trees and queries: all results agree exactly as (root, cost)
// pairs, and the best-n answers for n in {1, 3, 7} have the reference's
// first n costs.
func FuzzSchemaMatchesReference(f *testing.F) {
	for _, seed := range []int64{1, 514, 1966, 2002} {
		f.Add(seed, uint8(40), uint8(3))
	}
	f.Fuzz(func(t *testing.T, seed int64, nodes, depth uint8) {
		rng := rand.New(rand.NewSource(seed))
		model := randomModel(rng)
		tree := randomTree(rng, model, 1+int(nodes)%60)
		q := randomQuery(rng, 1+int(depth)%3)
		want, err := eval.ReferenceBestN(tree, q, model, 0)
		if err != nil {
			t.Fatalf("Reference: %v", err)
		}
		sch := schema.Build(tree)
		x := lang.Expand(q, model)
		got, m, err := bestN(sch, sch, x, 0, exec.Config{MaxK: fuzzMaxK})
		if err != nil {
			t.Fatalf("schema-driven: %v", err)
		}
		if m.Truncated {
			t.Skipf("query %s: plan stream longer than %d", q, fuzzMaxK)
		}
		if !sameResults(got, want) {
			t.Fatalf("query %s\ntree:\n%s\nschema-driven: %v\nreference:     %v",
				q, tree.RenderString(0), got, want)
		}
		for _, n := range []int{1, 3, 7} {
			got, _, err := bestN(sch, sch, x, n, exec.Config{})
			if err != nil {
				t.Fatalf("schema-driven n = %d: %v", n, err)
			}
			if !sameTopN(got, want[:min(n, len(want))]) {
				t.Fatalf("query %s at n = %d:\nschema-driven: %v\nreference:     %v",
					q, n, got, want[:min(n, len(want))])
			}
		}
	})
}
