package querygen

import (
	"strings"
	"testing"

	"approxql/internal/cost"
	"approxql/internal/datagen"
	"approxql/internal/eval"
	"approxql/internal/index"
	"approxql/internal/lang"
	"approxql/internal/xmltree"
)

func testTree(t *testing.T) *xmltree.Tree {
	t.Helper()
	cfg := datagen.Config{
		Seed: 9, NumElementNames: 15, VocabularySize: 200,
		TargetElements: 2000, TargetWords: 8000,
		TemplateNodes: 40, MaxDepth: 5, MaxRepeat: 3, ZipfSkew: 1.3,
	}
	tree, err := datagen.GenerateTree(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestPaperPatternsParse(t *testing.T) {
	for _, p := range PaperPatterns {
		if _, err := lang.Parse(p.Src); err != nil {
			t.Errorf("pattern %s does not parse: %v", p.Name, err)
		}
	}
	if PaperPatterns[0].Src != `name[name[name[term]]]` {
		t.Error("pattern 1 deviates from the paper")
	}
	if PaperPatterns[1].Src != `name[name[term and (term or term)]]` {
		t.Error("pattern 2 deviates from the paper")
	}
	if !strings.Contains(PaperPatterns[2].Src, "] and name]") {
		t.Error("pattern 3 deviates from the paper")
	}
}

// TestExtendedPatternsGenerate pins the extended pattern set: every
// extended pattern parses, fills deterministically, and is reachable by
// name through FindPattern.
func TestExtendedPatternsGenerate(t *testing.T) {
	tree := testTree(t)
	for _, p := range ExtendedPatterns {
		if _, err := lang.Parse(p.Src); err != nil {
			t.Fatalf("pattern %s does not parse: %v", p.Name, err)
		}
		found, ok := FindPattern(p.Name)
		if !ok || found.Src != p.Src {
			t.Errorf("FindPattern(%q) = %+v, %v", p.Name, found, ok)
		}
		g1, _ := New(tree, 77)
		g2, _ := New(tree, 77)
		a, err := g1.Generate(p, 5)
		if err != nil {
			t.Fatalf("pattern %s: %v", p.Name, err)
		}
		b, err := g2.Generate(p, 5)
		if err != nil {
			t.Fatal(err)
		}
		if a.Query.String() != b.Query.String() {
			t.Errorf("pattern %s not deterministic: %s vs %s", p.Name, a.Query, b.Query)
		}
		pat := lang.MustParse(p.Src)
		if a.Query.Selectors() != pat.Selectors() {
			t.Errorf("pattern %s: %d selectors, want %d", p.Name, a.Query.Selectors(), pat.Selectors())
		}
	}
	if _, ok := FindPattern("pattern1"); !ok {
		t.Error("FindPattern misses the paper patterns")
	}
	if _, ok := FindPattern("nope"); ok {
		t.Error("FindPattern invented a pattern")
	}
}

func TestGenerateFillsPlaceholders(t *testing.T) {
	tree := testTree(t)
	g, err := New(tree, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range PaperPatterns {
		gen, err := g.Generate(p, 0)
		if err != nil {
			t.Fatalf("pattern %s: %v", p.Name, err)
		}
		// The filled query has the same selector count as the pattern.
		pat := lang.MustParse(p.Src)
		if gen.Query.Selectors() != pat.Selectors() {
			t.Errorf("pattern %s: %d selectors, want %d", p.Name, gen.Query.Selectors(), pat.Selectors())
		}
		// No placeholder survives.
		if s := gen.Query.String(); strings.Contains(s, "name[") && strings.Contains(s, "[name") {
			t.Errorf("placeholders left in %s", s)
		}
		for _, l := range gen.Query.Labels() {
			if l.Kind == cost.Struct && tree.Names.Lookup(l.Name) < 0 {
				t.Errorf("name %q not from the data tree", l.Name)
			}
			if l.Kind == cost.Text && tree.Terms.Lookup(l.Name) < 0 {
				t.Errorf("term %q not from the data tree", l.Name)
			}
		}
	}
}

func TestGenerateRenamings(t *testing.T) {
	tree := testTree(t)
	g, err := New(tree, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []int{0, 5, 10} {
		gen, err := g.Generate(PaperPatterns[1], r)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range gen.Query.Labels() {
			got := len(gen.Model.Renamings(l.Name, l.Kind))
			if got > r {
				t.Errorf("label %s has %d renamings, cap %d", l.Name, got, r)
			}
			if r >= 5 && got == 0 {
				t.Errorf("label %s got no renamings out of %d", l.Name, r)
			}
			if dc := gen.Model.DeleteCost(l.Name, l.Kind); cost.IsInf(dc) || dc < 1 {
				t.Errorf("label %s delete cost %d", l.Name, dc)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	tree := testTree(t)
	g1, _ := New(tree, 5)
	g2, _ := New(tree, 5)
	a, err := g1.Generate(PaperPatterns[0], 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := g2.Generate(PaperPatterns[0], 5)
	if err != nil {
		t.Fatal(err)
	}
	if a.Query.String() != b.Query.String() {
		t.Errorf("same seed, different queries: %s vs %s", a.Query, b.Query)
	}
}

func TestGenerateSet(t *testing.T) {
	tree := testTree(t)
	g, _ := New(tree, 3)
	set, err := g.GenerateSet(PaperPatterns[0], 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 10 {
		t.Fatalf("set size = %d", len(set))
	}
	distinct := make(map[string]bool)
	for _, gen := range set {
		distinct[gen.Query.String()] = true
	}
	if len(distinct) < 5 {
		t.Errorf("only %d distinct queries in a set of 10", len(distinct))
	}
}

func TestBadPatterns(t *testing.T) {
	tree := testTree(t)
	g, _ := New(tree, 1)
	bad := []string{
		`cd[title[term]]`,  // literal names
		`name[term[term]]`, // term with children
		`name["literal"]`,  // literal text
		`term`,             // term as root
	}
	for _, src := range bad {
		if _, err := g.Generate(Pattern{Name: "bad", Src: src}, 0); err == nil {
			t.Errorf("pattern %q accepted", src)
		}
	}
}

func TestAnchoredQueriesHaveResults(t *testing.T) {
	tree := testTree(t)
	ix := index.Build(tree)
	g, _ := New(tree, 4)
	found := 0
	for i := 0; i < 10; i++ {
		gen, err := g.Anchored(tree, PaperPatterns[0])
		if err != nil {
			t.Fatal(err)
		}
		res, err := eval.New(tree, ix).BestN(lang.Expand(gen.Query, gen.Model), 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) > 0 {
			found++
		}
	}
	if found < 5 {
		t.Errorf("only %d of 10 anchored queries had results", found)
	}
}

func TestGeneratorRejectsEmptyTree(t *testing.T) {
	tree, err := xmltree.ParseXML(`<a><b/></a>`) // no terms
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(tree, 1); err == nil {
		t.Error("generator accepted a termless tree")
	}
}
