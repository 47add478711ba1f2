package approxql

import (
	"strings"
	"testing"

	"approxql/internal/datagen"
	"approxql/internal/querygen"
)

// TestAutoMatchesPlannedStrategy pins the planner's central contract: an
// Auto search is bit-identical to forcing the strategy the planner reports
// for the same (query, n), on both backends, and the attached metrics name
// that strategy.
func TestAutoMatchesPlannedStrategy(t *testing.T) {
	cfg := datagen.Config{
		Seed: 17, NumElementNames: 20, VocabularySize: 400,
		TargetElements: 3000, TargetWords: 10000,
		TemplateNodes: 60, MaxDepth: 6, MaxRepeat: 3, ZipfSkew: 1.3,
	}
	tree, err := datagen.GenerateTree(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	mem := newDatabase(tree)
	stored, err := OpenBundle(persistBundle(t, mem), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer stored.Close()

	qg, err := querygen.New(mem.Tree(), 3)
	if err != nil {
		t.Fatal(err)
	}
	sawDirect, sawSchema := false, false
	for _, p := range querygen.PaperPatterns {
		for _, ren := range []int{0, 5} {
			set, err := qg.GenerateSet(p, ren, 2)
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range set {
				query := g.Query.String()
				for _, n := range []int{0, 3, 10000} {
					for _, db := range []*Database{mem, stored} {
						p, err := db.Plan(query, n, WithCostModel(g.Model))
						if err != nil {
							t.Fatal(err)
						}
						if p.Strategy != Direct && p.Strategy != SchemaDriven {
							t.Fatalf("%s n=%d: planner picked %v", query, n, p.Strategy)
						}
						if n <= 0 && p.Strategy != Direct {
							t.Fatalf("%s n=%d: all-results query planned as %v", query, n, p.Strategy)
						}
						var m QueryMetrics
						auto, err := db.Search(query, n,
							WithCostModel(g.Model), WithMetrics(&m))
						if err != nil {
							t.Fatal(err)
						}
						forced, err := db.Search(query, n,
							WithCostModel(g.Model), WithStrategy(p.Strategy))
						if err != nil {
							t.Fatal(err)
						}
						if !sameResults(auto, forced) {
							t.Fatalf("%s n=%d: auto %v vs planned %v (%v)",
								query, n, auto, forced, p.Strategy)
						}
						if m.PlannerStrategy != p.Strategy.String() {
							t.Fatalf("%s n=%d: metrics name %q, Plan picked %v",
								query, n, m.PlannerStrategy, p.Strategy)
						}
						if m.Shards != 1 {
							t.Fatalf("%s n=%d: planner ran over %d shards, want 1",
								query, n, m.Shards)
						}
						switch p.Strategy {
						case Direct:
							sawDirect = true
						case SchemaDriven:
							sawSchema = true
						}
					}
				}
			}
		}
	}
	// The n sweep must exercise both sides of the crossover, or the test
	// proves nothing about one of them.
	if !sawDirect || !sawSchema {
		t.Fatalf("crossover not exercised: direct=%v schema=%v", sawDirect, sawSchema)
	}
}

// TestAutoKeepsEngineSchedule: the planner picks only the strategy. When
// Auto resolves to schema-driven, the engine pulls and executes the same
// second-level queries as a forced schema-driven search.
func TestAutoKeepsEngineSchedule(t *testing.T) {
	b := NewBuilder(nil)
	xml := "<catalog>" + strings.Repeat("<cd><title>concerto</title></cd>", 6) + "</catalog>"
	if err := b.AddXMLString(xml); err != nil {
		t.Fatal(err)
	}
	db, err := b.Database()
	if err != nil {
		t.Fatal(err)
	}
	const query, n = `cd[title]`, 1
	p, err := db.Plan(query, n)
	if err != nil {
		t.Fatal(err)
	}
	if p.Strategy != SchemaDriven {
		t.Fatalf("plan = %+v, want schema-driven", p)
	}
	var auto, forced QueryMetrics
	if _, err := db.Search(query, n, WithMetrics(&auto)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Search(query, n, WithStrategy(SchemaDriven), WithMetrics(&forced)); err != nil {
		t.Fatal(err)
	}
	if auto.PlannerStrategy != "schema" {
		t.Fatalf("Auto ran %q", auto.PlannerStrategy)
	}
	if auto.Planned != forced.Planned || auto.Executed != forced.Executed || auto.Planned == 0 {
		t.Errorf("Auto pulled %d and executed %d second-level queries, forced schema-driven %d and %d",
			auto.Planned, auto.Executed, forced.Planned, forced.Executed)
	}
}

// BenchmarkPlannerCrossover compares Auto against both forced strategies at
// the two ends of the paper's Figure 7 n sweep: a small result bound (the
// schema-driven end) and all results (the direct end). Auto should track the
// winning forced strategy at each end, paying only the planner's count
// probes on top.
func BenchmarkPlannerCrossover(b *testing.B) {
	cfg := datagen.Config{
		Seed: 17, NumElementNames: 20, VocabularySize: 400,
		TargetElements: 10000, TargetWords: 30000,
		TemplateNodes: 60, MaxDepth: 6, MaxRepeat: 3, ZipfSkew: 1.3,
	}
	tree, err := datagen.GenerateTree(cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	db := newDatabase(tree)
	qg, err := querygen.New(tree, 3)
	if err != nil {
		b.Fatal(err)
	}
	set, err := qg.GenerateSet(querygen.PaperPatterns[0], 2, 4)
	if err != nil {
		b.Fatal(err)
	}

	ends := []struct {
		name string
		n    int
	}{
		{"n=5", 5},
		{"n=all", 0},
	}
	strategies := []struct {
		name string
		opts []QueryOption
	}{
		{"auto", nil},
		{"direct", []QueryOption{WithStrategy(Direct)}},
		{"schema", []QueryOption{WithStrategy(SchemaDriven)}},
	}
	for _, end := range ends {
		for _, st := range strategies {
			b.Run(end.name+"/"+st.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					g := set[i%len(set)]
					opts := append([]QueryOption{WithCostModel(g.Model)}, st.opts...)
					if _, err := db.Search(g.Query.String(), end.n, opts...); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
