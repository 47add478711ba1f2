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

// TestModerateScaleSmoke builds a 10%-of-paper collection (100k elements,
// 1M words) and verifies the full stack at a size where quadratic slips or
// memory blow-ups would show: generation, indexing, schema construction,
// and agreement of both algorithms on bounded-n queries.
func TestModerateScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("moderate-scale smoke")
	}
	cfg := datagen.Paper(3).Scale(0.1)
	tree, err := datagen.GenerateTree(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := tree.ComputeStats()
	if st.StructNodes < 100_000 {
		t.Fatalf("elements = %d", st.StructNodes)
	}
	ix := index.Build(tree)
	sch := schema.Build(tree)
	ss := sch.ComputeStats()
	if ss.Classes > st.Nodes/100 {
		t.Errorf("schema not compact: %d classes for %d nodes", ss.Classes, st.Nodes)
	}

	qg, err := querygen.New(tree, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range querygen.PaperPatterns {
		for _, ren := range []int{0, 5} {
			set, err := qg.GenerateSet(p, ren, 2)
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range set {
				x := lang.Expand(g.Query, g.Model)
				direct, err := eval.New(tree, ix).BestN(x, 10)
				if err != nil {
					t.Fatal(err)
				}
				viaSchema, _, err := schemaBestN(sch, sch, x, 10, exec.Config{})
				if err != nil {
					t.Fatal(err)
				}
				if len(direct) != len(viaSchema) {
					t.Fatalf("%s/%d %s: direct %d vs schema %d",
						p.Name, ren, g.Query, len(direct), len(viaSchema))
				}
				for i := range direct {
					if direct[i].Cost != viaSchema[i].Cost {
						t.Fatalf("%s/%d %s: cost[%d] %d vs %d",
							p.Name, ren, g.Query, i, direct[i].Cost, viaSchema[i].Cost)
					}
				}
			}
		}
	}
}
