package kbest

import (
	"testing"
	"unsafe"

	"approxql/internal/cost"
	"approxql/internal/datagen"
	"approxql/internal/lang"
	"approxql/internal/querygen"
	"approxql/internal/schema"
)

// TestSecondLevelAllocBudget pins the allocation discipline of planning:
// once the pool holds a warm planner, a round allocates at most the Engine,
// the exported Entries, their pointer slab and the result slice — as few
// objects on the small catalogue as on a ten-renaming Boolean query planned
// at k = 64, whose lists hold thousands of entries. A regression
// here puts per-entry or per-list garbage back into every schema-driven
// query.
func TestSecondLevelAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	tree, err := datagen.GenerateTree(datagen.Config{
		Seed: 1, NumElementNames: 20, VocabularySize: 300,
		TargetElements: 3000, TargetWords: 12000,
		TemplateNodes: 60, MaxDepth: 6, MaxRepeat: 3, ZipfSkew: 1.3,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	qg, err := querygen.New(tree, 7)
	if err != nil {
		t.Fatal(err)
	}
	g, err := qg.Generate(querygen.PaperPatterns[2], 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, fx := range []struct {
		name string
		sch  *schema.Schema
		x    *lang.Expanded
		k    int
	}{
		{"catalogue", opsSchema(t), lang.Expand(lang.MustParse(`cd[title["concerto" and "piano"] or mc]`), cost.PaperExample()), 8},
		{"pattern3/renamings=10", schema.Build(tree), lang.Expand(g.Query, g.Model), 64},
	} {
		run := func() {
			lp, err := NewEngine(fx.sch, fx.k).SecondLevel(fx.x)
			if err != nil || len(lp) == 0 {
				t.Fatalf("%s: %d plans, err %v", fx.name, len(lp), err)
			}
		}
		run() // warm the planner pool
		if allocs := testing.AllocsPerRun(20, run); allocs > 4 {
			t.Errorf("%s: %.1f allocs per planning round, budget 4", fx.name, allocs)
		}
	}
}

// TestNodeLayout pins the planning entry at 32 bytes: cost, class, fetch,
// the pointer run and the leaf flag. Bound, PathCost and InsCost are read
// from the schema; growing the node grows every list operation's copies
// and the planner pool's footprint.
func TestNodeLayout(t *testing.T) {
	if got := unsafe.Sizeof(node{}); got != 32 {
		t.Errorf("sizeof(node) = %d bytes, want 32", got)
	}
}
