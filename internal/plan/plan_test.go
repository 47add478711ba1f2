package plan_test

import (
	"fmt"
	"strings"
	"testing"

	"approxql/internal/backend"
	"approxql/internal/cost"
	"approxql/internal/lang"
	"approxql/internal/plan"
	"approxql/internal/schema"
	"approxql/internal/xmltree"
)

// buildWorld returns a flat catalog: 40 cds with titles (12 of them
// containing "concerto"), 5 mcs, one vinyl.
func buildWorld(t *testing.T) (*xmltree.Tree, *schema.Schema, *backend.Memory) {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("<catalog>")
	for i := 0; i < 40; i++ {
		word := "sonata"
		if i < 12 {
			word = "concerto"
		}
		fmt.Fprintf(&sb, "<cd><title>%s piece %d</title></cd>", word, i)
	}
	for i := 0; i < 5; i++ {
		fmt.Fprintf(&sb, "<mc><title>tape %d</title></mc>", i)
	}
	sb.WriteString("<vinyl><title>single</title></vinyl></catalog>")
	b := xmltree.NewBuilder(nil)
	if err := b.AddDocument(strings.NewReader(sb.String())); err != nil {
		t.Fatal(err)
	}
	tree, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return tree, schema.Build(tree), backend.NewMemory(tree)
}

func expand(t *testing.T, query string, model *cost.Model) *lang.Expanded {
	t.Helper()
	q, err := lang.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	if model == nil {
		model = cost.NewModel()
	}
	return lang.Expand(q, model)
}

// TestDecideCrossover pins the starting pick: the right end of Figure 7
// (all results) starts direct and issues no probe; every n > 0 starts
// schema-driven, priced at the direct algorithm's postings.
func TestDecideCrossover(t *testing.T) {
	_, _, be := buildWorld(t)
	x := expand(t, `cd[title]`, nil)

	if d := plan.Decide(nil, be, x, 0); d != (plan.Decision{Strategy: plan.Direct}) {
		t.Errorf("n=0: decision = %+v, want a bare direct start", d)
	}
	for _, n := range []int{1, 3, 20, 1000} {
		d := plan.Decide(nil, be, x, n)
		if d.Strategy != plan.SchemaDriven {
			t.Errorf("n=%d: strategy = %v, want schema", n, d.Strategy)
		}
		// 40 cds and 46 titles.
		if d.Price != 86 || d.Probes != 2 {
			t.Errorf("n=%d: price %d after %d probes, want 86 after 2", n, d.Price, d.Probes)
		}
	}
}

// TestPriceSumsEveryLabel: the price counts every label and renaming the
// direct algorithm reads — optional ("or", deletable) nodes included, an
// absent label as zero.
func TestPriceSumsEveryLabel(t *testing.T) {
	_, _, be := buildWorld(t)
	model := cost.NewModel()
	model.AddRenaming("dvd", "cd", cost.Struct, 1)
	model.AddRenaming("dvd", "mc", cost.Struct, 2)
	model.SetDelete("isbn", cost.Struct, 2)
	for _, tc := range []struct {
		query         string
		price, probes int
	}{
		{`cd[title["concerto"]]`, 40 + 46 + 12, 3},
		{`cd[title["concerto" or "sonata"]]`, 40 + 46 + 12 + 28, 4},
		{`cd[isbn]`, 40, 2},
		{`dvd[title]`, 0 + 40 + 5 + 46, 4},
	} {
		price, probes := plan.Price(be, expand(t, tc.query, model))
		if price != tc.price || probes != tc.probes {
			t.Errorf("%s: price %d after %d probes, want %d after %d", tc.query, price, probes, tc.price, tc.probes)
		}
	}
}
