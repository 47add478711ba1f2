package approxql

import (
	"bytes"
	"reflect"
	"sort"
	"strings"
	"testing"

	"approxql/internal/datagen"
	"approxql/internal/querygen"
)

const catalogXML = `
<catalog>
  <cd>
    <title>Piano Concerto</title>
    <composer>Rachmaninov</composer>
  </cd>
  <cd>
    <tracks><track><title>Piano Sonata</title></track></tracks>
  </cd>
  <mc>
    <title>Concerto</title>
  </mc>
</catalog>`

func buildDB(t *testing.T) *Database {
	t.Helper()
	b := NewBuilder(PaperCostModel())
	if err := b.AddXMLString(catalogXML); err != nil {
		t.Fatal(err)
	}
	db, err := b.Database()
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestSearchDirectAndSchemaAgree(t *testing.T) {
	db := buildDB(t)
	model := PaperCostModel()
	for _, query := range []string{
		`cd[title["concerto"]]`,
		`cd[title["piano" and "concerto"]]`,
		`cd[title["concerto" or "sonata"]]`,
	} {
		direct, err := db.Search(query, 0, WithCostModel(model), WithStrategy(Direct))
		if err != nil {
			t.Fatalf("%s: %v", query, err)
		}
		viaSchema, err := db.Search(query, 0, WithCostModel(model), WithStrategy(SchemaDriven))
		if err != nil {
			t.Fatalf("%s: %v", query, err)
		}
		if !reflect.DeepEqual(direct, viaSchema) {
			t.Errorf("%s:\ndirect: %v\nschema: %v", query, direct, viaSchema)
		}
	}
}

func TestSearchRanksByCost(t *testing.T) {
	db := buildDB(t)
	res, err := db.Search(`cd[title["concerto"]]`, 0, WithCostModel(PaperCostModel()))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("results = %v", res)
	}
	if res[0].Cost != 0 || res[1].Cost != 4 || res[2].Cost != 5 {
		t.Errorf("costs = %d,%d,%d; want 0,4,5", res[0].Cost, res[1].Cost, res[2].Cost)
	}
	if db.Label(res[0].Root) != "cd" {
		t.Errorf("best result labeled %q", db.Label(res[0].Root))
	}
	// Exact-only semantics without a cost model.
	exact, err := db.Search(`cd[title["concerto"]]`, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(exact) != 1 || exact[0].Cost != 0 {
		t.Errorf("exact results = %v", exact)
	}
}

func TestSearchN(t *testing.T) {
	db := buildDB(t)
	res, err := db.Search(`cd[title["concerto"]]`, 2, WithCostModel(PaperCostModel()))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].Cost != 0 || res[1].Cost != 4 {
		t.Errorf("BestN(2) = %v", res)
	}
}

func TestSearchSyntaxError(t *testing.T) {
	db := buildDB(t)
	if _, err := db.Search(`cd[`, 5); err == nil {
		t.Error("syntax error not reported")
	}
	if _, err := Parse(`cd[`); err == nil {
		t.Error("Parse accepted a broken query")
	}
	if s, err := Parse(`cd [ title [ "Piano" ] ]`); err != nil || s != `cd[title["piano"]]` {
		t.Errorf("Parse canonical form = %q, %v", s, err)
	}
}

func TestRenderAndPath(t *testing.T) {
	db := buildDB(t)
	res, err := db.Search(`mc[title["concerto"]]`, 1)
	if err != nil || len(res) != 1 {
		t.Fatalf("res = %v, %v", res, err)
	}
	rendered := db.Render(res[0].Root)
	if rendered == "" || db.Path(res[0].Root) != "<root>/catalog/mc" {
		t.Errorf("Render = %q, Path = %q", rendered, db.Path(res[0].Root))
	}
}

func TestStreamDeliversInCostOrder(t *testing.T) {
	db := buildDB(t)
	var costs []Cost
	err := db.Stream(`cd[title["concerto"]]`, func(r Result) bool {
		costs = append(costs, r.Cost)
		return true
	}, WithCostModel(PaperCostModel()))
	if err != nil {
		t.Fatal(err)
	}
	if len(costs) != 3 {
		t.Fatalf("streamed %d results, want 3", len(costs))
	}
	if !sort.SliceIsSorted(costs, func(i, j int) bool { return costs[i] < costs[j] }) {
		t.Errorf("stream out of order: %v", costs)
	}
	// Early stop.
	n := 0
	err = db.Stream(`cd[title["concerto"]]`, func(r Result) bool {
		n++
		return false
	}, WithCostModel(PaperCostModel()))
	if err != nil || n != 1 {
		t.Errorf("early stop streamed %d, err %v", n, err)
	}
}

func TestExplain(t *testing.T) {
	db := buildDB(t)
	plans, err := db.Explain(`cd[title["concerto"]]`, 5, WithCostModel(PaperCostModel()))
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) == 0 {
		t.Fatal("no second-level queries")
	}
	if plans[0].Cost != 0 || plans[0].Results != 1 {
		t.Errorf("best plan = %+v", plans[0])
	}
	for i := 1; i < len(plans); i++ {
		if plans[i].Cost < plans[i-1].Cost {
			t.Errorf("plans unsorted at %d", i)
		}
	}
}

func TestDatabaseSerializationRoundTrip(t *testing.T) {
	db := buildDB(t)
	var buf bytes.Buffer
	if _, err := db.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	db2, err := ReadDatabase(bytes.NewReader(buf.Bytes()), PaperCostModel())
	if err != nil {
		t.Fatal(err)
	}
	want, _ := db.Search(`cd[title["concerto"]]`, 0, WithCostModel(PaperCostModel()))
	got, err := db2.Search(`cd[title["concerto"]]`, 0, WithCostModel(PaperCostModel()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("after round trip: %v, want %v", got, want)
	}
}

func TestAutoStrategy(t *testing.T) {
	db := buildDB(t)
	model := PaperCostModel()
	// Auto must give the same answers either way.
	bounded, err := db.Search(`cd[title["concerto"]]`, 2, WithCostModel(model))
	if err != nil {
		t.Fatal(err)
	}
	all, err := db.Search(`cd[title["concerto"]]`, 0, WithCostModel(model))
	if err != nil {
		t.Fatal(err)
	}
	if len(bounded) != 2 || len(all) != 3 {
		t.Errorf("bounded = %v, all = %v", bounded, all)
	}
	if Auto.String() != "auto" || Direct.String() != "direct" || SchemaDriven.String() != "schema" {
		t.Error("Strategy.String misbehaves")
	}
}

func TestSearchExplained(t *testing.T) {
	db := buildDB(t)
	res, err := db.SearchExplained(`cd[title["concerto"]]`, 0, WithCostModel(PaperCostModel()))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("explained results = %v", res)
	}
	// The cheapest result must be the exact plan over cd.
	if res[0].Cost != 0 || !strings.HasPrefix(res[0].Plan, "cd@") {
		t.Errorf("best = %+v", res[0])
	}
	// Costs ascend and every result carries a plan.
	for i, r := range res {
		if r.Plan == "" {
			t.Errorf("result %d without plan", i)
		}
		if i > 0 && r.Cost < res[i-1].Cost {
			t.Errorf("explained results unsorted at %d", i)
		}
	}
	// The mc result's plan must mention the renamed root.
	foundMC := false
	for _, r := range res {
		if db.Label(r.Root) == "mc" && strings.HasPrefix(r.Plan, "mc@") {
			foundMC = true
		}
	}
	if !foundMC {
		t.Errorf("no mc plan among %v", res)
	}
	// Result sets agree with Search.
	plain, err := db.Search(`cd[title["concerto"]]`, 0, WithCostModel(PaperCostModel()))
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(res) {
		t.Errorf("Search found %d, SearchExplained %d", len(plain), len(res))
	}
	// n bounds the output.
	two, err := db.SearchExplained(`cd[title["concerto"]]`, 2, WithCostModel(PaperCostModel()))
	if err != nil || len(two) != 2 {
		t.Errorf("SearchExplained(2) = %v, %v", two, err)
	}
}

// TestSearchExplainedMatchesSearch: SearchExplained ranks and cuts what
// the engine emits exactly as Search does, ties included. The collection
// has few element names and a short vocabulary, so the paper catalogue's
// queries see many equal-cost second-level queries, and an n-th result
// inside a tie set.
func TestSearchExplainedMatchesSearch(t *testing.T) {
	tree, err := datagen.GenerateTree(datagen.Config{
		Seed: 1, NumElementNames: 20, VocabularySize: 300,
		TargetElements: 3000, TargetWords: 12000,
		TemplateNodes: 60, MaxDepth: 6, MaxRepeat: 3, ZipfSkew: 1.3,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	db := newDatabase(tree)
	qg, err := querygen.New(tree, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range querygen.PaperPatterns {
		for _, ren := range []int{0, 5, 10} {
			set, err := qg.GenerateSet(p, ren, 2)
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range set {
				query := g.Query.String()
				opts := []QueryOption{WithCostModel(g.Model), WithStrategy(SchemaDriven)}
				for _, n := range []int{1, 10} {
					want, err := db.Search(query, n, opts...)
					if err != nil {
						t.Fatal(err)
					}
					got, err := db.SearchExplained(query, n, opts...)
					if err != nil {
						t.Fatal(err)
					}
					same := len(got) == len(want)
					for i := 0; same && i < len(got); i++ {
						same = got[i].Result == want[i]
					}
					if !same {
						t.Errorf("%s at n = %d: SearchExplained %v, Search %v", query, n, got, want)
					}
				}
			}
		}
	}
}

// TestSchemaSearchMatchesDirect: the two strategies solve one best-n-pairs
// problem, so forced schema-driven and forced direct Search return the
// same (root, cost) pairs, ties at the n-th cost included, on the
// tie-heavy collection of TestSearchExplainedMatchesSearch, in memory and
// over stored indexes.
func TestSchemaSearchMatchesDirect(t *testing.T) {
	tree, err := datagen.GenerateTree(datagen.Config{
		Seed: 1, NumElementNames: 20, VocabularySize: 300,
		TargetElements: 3000, TargetWords: 12000,
		TemplateNodes: 60, MaxDepth: 6, MaxRepeat: 3, ZipfSkew: 1.3,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	mem := newDatabase(tree)
	stored, err := OpenBundle(persistBundle(t, mem), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer stored.Close()
	qg, err := querygen.New(tree, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range querygen.PaperPatterns {
		for _, ren := range []int{0, 5, 10} {
			set, err := qg.GenerateSet(p, ren, 2)
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range set {
				query := g.Query.String()
				for _, n := range []int{1, 10} {
					for name, db := range map[string]*Database{"memory": mem, "stored": stored} {
						direct, err := db.Search(query, n, WithCostModel(g.Model), WithStrategy(Direct))
						if err != nil {
							t.Fatal(err)
						}
						schema, err := db.Search(query, n, WithCostModel(g.Model), WithStrategy(SchemaDriven))
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(schema, direct) {
							t.Errorf("%s, %s at n = %d: schema-driven %v, direct %v", name, query, n, schema, direct)
						}
					}
				}
			}
		}
	}
}

func TestBuilderErrorsPropagate(t *testing.T) {
	b := NewBuilder(nil)
	if err := b.AddXMLString(`<broken`); err == nil {
		t.Fatal("broken XML accepted")
	}
	if _, err := b.Database(); err == nil {
		t.Fatal("Database succeeded after a parse error")
	}
	if err := b.AddXMLFile("/nonexistent/file.xml"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestSchemaAccessors(t *testing.T) {
	db := buildDB(t)
	sch := db.Schema()
	if sch == nil || sch.Len() == 0 {
		t.Fatal("schema missing")
	}
	if db.Schema() != sch {
		t.Error("schema rebuilt on second access")
	}
	if db.Len() != db.Tree().Len() {
		t.Error("Len mismatch")
	}
	if db.Index() == nil {
		t.Error("Index is nil")
	}
}

func TestMatchDetails(t *testing.T) {
	db := buildDB(t)
	model := PaperCostModel()
	query := `cd[title["concerto"]]`
	res, err := db.Search(query, 0, WithCostModel(model))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		steps, total, err := db.MatchDetails(query, r.Root, WithCostModel(model))
		if err != nil {
			t.Fatalf("MatchDetails(%d): %v", r.Root, err)
		}
		if total != r.Cost {
			t.Errorf("MatchDetails cost %d, Search cost %d", total, r.Cost)
		}
		if len(steps) != 3 { // cd, title, concerto
			t.Errorf("steps = %v", steps)
		}
	}
	// The mc result must report the root as renamed.
	var mcRoot NodeID = -1
	for _, r := range res {
		if db.Label(r.Root) == "mc" {
			mcRoot = r.Root
		}
	}
	steps, _, err := db.MatchDetails(query, mcRoot, WithCostModel(model))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range steps {
		if s.QueryLabel == "cd" && s.Action == "renamed" && s.MatchedLabel == "mc" {
			found = true
		}
	}
	if !found {
		t.Errorf("mc root not reported as renamed: %v", steps)
	}
	// A non-result root fails.
	if _, _, err := db.MatchDetails(query, 0, WithCostModel(model)); err == nil {
		t.Error("MatchDetails at the super-root succeeded")
	}
}

func TestFingerprint(t *testing.T) {
	fp := func(q string) string {
		t.Helper()
		f, err := Fingerprint(q)
		if err != nil {
			t.Fatalf("Fingerprint(%q): %v", q, err)
		}
		return f
	}
	// Spelling variants of one canonical parse tree share a fingerprint.
	base := fp(`cd[title["piano" and "concerto"]]`)
	for _, variant := range []string{
		`cd[ title[ "piano" and "concerto" ] ]`,
		`cd[title[("piano" and "concerto")]]`,
		`cd[title["piano concerto"]]`,
	} {
		if got := fp(variant); got != base {
			t.Errorf("Fingerprint(%q) = %s, want %s", variant, got, base)
		}
	}
	// Different trees get different fingerprints.
	for _, other := range []string{
		`cd[title["piano" or "concerto"]]`,
		`cd[title["piano"]]`,
		`mc[title["piano" and "concerto"]]`,
	} {
		if got := fp(other); got == base {
			t.Errorf("Fingerprint(%q) collides with the base query", other)
		}
	}
	// Malformed queries fail instead of fingerprinting garbage.
	if _, err := Fingerprint(`cd[`); err == nil {
		t.Error("Fingerprint accepted a malformed query")
	}
}
