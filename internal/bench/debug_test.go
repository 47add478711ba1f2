package bench

import (
	"testing"

	"approxql/internal/datagen"
	"approxql/internal/eval"
	"approxql/internal/exec"
	"approxql/internal/index"
	"approxql/internal/lang"
	"approxql/internal/querygen"
	"approxql/internal/schema"
)

// TestTruncationRegression pins the behavior discovered on pattern3 with 5
// renamings: permissive cost models induce more second-level queries than
// any practical k, so an unbounded n=∞ schema-driven search must end via
// the MaxK valve with Truncated set, while bounded-n answers stay exact.
func TestTruncationRegression(t *testing.T) {
	cfg := tinyConfig()
	tree, err := datagen.GenerateTree(cfg.Data, nil)
	if err != nil {
		t.Fatal(err)
	}
	ix := index.Build(tree)
	sch := schema.Build(tree)
	qg, err := querygen.New(tree, cfg.QuerySeed)
	if err != nil {
		t.Fatal(err)
	}
	// Regenerate the sets in NewRunner's order so the seeds line up.
	var set []*querygen.Generated
	for _, p := range querygen.PaperPatterns {
		for _, ren := range cfg.Renamings {
			s, err := qg.GenerateSet(p, ren, cfg.QueriesPerPoint)
			if err != nil {
				t.Fatal(err)
			}
			if p.Name == "pattern3" && ren == 5 {
				set = s
			}
		}
	}
	for qi, g := range set {
		x := lang.Expand(g.Query, g.Model)
		direct, err := eval.New(tree, ix).BestN(x, 10)
		if err != nil {
			t.Fatal(err)
		}
		// Bounded n: exact regardless of the skeleton-space size.
		viaSchema, _, err := schemaBestN(sch, sch, x, 10, exec.Config{MaxK: 4096})
		if err != nil {
			t.Fatal(err)
		}
		if len(direct) != len(viaSchema) {
			t.Fatalf("query %d: n=10 direct %d vs schema %d", qi, len(direct), len(viaSchema))
		}
		for i := range direct {
			if direct[i].Cost != viaSchema[i].Cost {
				t.Fatalf("query %d: n=10 cost[%d] direct %d vs schema %d",
					qi, i, direct[i].Cost, viaSchema[i].Cost)
			}
		}
		// n = ∞ under a small MaxK: either exhausted exactly, or
		// truncated with a subset.
		all, err := eval.New(tree, ix).BestN(x, 0)
		if err != nil {
			t.Fatal(err)
		}
		allSchema, stats, err := schemaBestN(sch, sch, x, 0, exec.Config{MaxK: 512})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Truncated {
			if len(allSchema) > len(all) {
				t.Fatalf("query %d: truncated schema found more results (%d > %d)",
					qi, len(allSchema), len(all))
			}
		} else if len(allSchema) != len(all) {
			t.Fatalf("query %d: untruncated schema %d results vs direct %d",
				qi, len(allSchema), len(all))
		}
	}
}
