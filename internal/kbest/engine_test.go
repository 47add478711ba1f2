package kbest_test

import (
	"cmp"
	"context"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"approxql/internal/cost"
	"approxql/internal/eval"
	"approxql/internal/exec"
	"approxql/internal/index"
	"approxql/internal/kbest"
	"approxql/internal/lang"
	"approxql/internal/schema"
	"approxql/internal/xmltree"
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

func buildCatalog(t *testing.T) (*xmltree.Tree, *schema.Schema) {
	t.Helper()
	b := xmltree.NewBuilder(cost.PaperExample())
	if err := b.AddDocument(strings.NewReader(catalogXML)); err != nil {
		t.Fatal(err)
	}
	tree, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	sch := schema.Build(tree)
	if err := sch.Validate(); err != nil {
		t.Fatal(err)
	}
	return tree, sch
}

func TestSecondLevelPathQuery(t *testing.T) {
	_, sch := buildCatalog(t)
	q := lang.MustParse(`cd[title["concerto"]]`)
	x := lang.Expand(q, cost.PaperExample())
	en := kbest.NewEngine(sch, 10)
	lp, err := en.SecondLevel(x)
	if err != nil {
		t.Fatal(err)
	}
	if len(lp) == 0 {
		t.Fatal("no second-level queries")
	}
	// The cheapest second-level query must be the exact one: cost 0,
	// rooted at the cd class, with a title pointer chain.
	if lp[0].Cost != 0 || lp[0].Label != "cd" {
		t.Errorf("best second-level query = %s cost %d", kbest.Render(lp[0]), lp[0].Cost)
	}
	// Costs ascend.
	for i := 1; i < len(lp); i++ {
		if lp[i].Cost < lp[i-1].Cost {
			t.Fatalf("second-level queries unsorted at %d", i)
		}
	}
	// Every second-level query must have a leaf match.
	for _, e := range lp {
		if !e.HasLeaf {
			t.Errorf("leafless second-level query %s", kbest.Render(e))
		}
	}
}

func TestSecondaryExactPath(t *testing.T) {
	tree, sch := buildCatalog(t)
	q := lang.MustParse(`cd[title["concerto"]]`)
	x := lang.Expand(q, cost.PaperExample())
	en := kbest.NewEngine(sch, 1)
	lp, err := en.SecondLevel(x)
	if err != nil {
		t.Fatal(err)
	}
	if len(lp) != 1 {
		t.Fatalf("SecondLevel(k=1) = %d queries", len(lp))
	}
	roots, err := en.Secondary(lp[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(roots) != 1 {
		t.Fatalf("Secondary = %v, want one root", roots)
	}
	if tree.Label(roots[0]) != "cd" {
		t.Errorf("root labeled %q", tree.Label(roots[0]))
	}
}

func TestBestNMatchesDirectOnCatalog(t *testing.T) {
	tree, sch := buildCatalog(t)
	ix := index.Build(tree)
	model := cost.PaperExample()
	queries := []string{
		`cd[title["concerto"]]`,
		`cd[title["piano" and "concerto"]]`,
		`cd[track[title["piano" and "concerto"]] and composer["rachmaninov"]]`,
		`cd[title["concerto" or "sonata"]]`,
		`cd`,
	}
	for _, src := range queries {
		q := lang.MustParse(src)
		x := lang.Expand(q, model)
		direct, err := eval.New(tree, ix).BestN(x, 0)
		if err != nil {
			t.Fatal(err)
		}
		viaSchema, _, err := bestN(sch, sch, x, 0, exec.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if !sameResults(direct, viaSchema) {
			t.Errorf("query %s:\ndirect: %v\nschema: %v", src, direct, viaSchema)
		}
	}
}

// bestN answers the best-n-pairs problem with the incremental engine
// (internal/exec, sequential) in the shape the direct evaluator returns:
// sorted by (cost, root) and cut at n. n <= 0 retrieves all results.
func bestN(sch *schema.Schema, sec schema.SecSource, x *lang.Expanded, n int, cfg exec.Config) ([]eval.Result, exec.Metrics, error) {
	var m exec.Metrics
	cfg.N, cfg.Metrics = n, &m
	var res []eval.Result
	err := exec.New(sch, sec, cfg).Run(context.Background(), x, func(it exec.Item) bool {
		res = append(res, eval.Result{Root: it.Root, Cost: it.Cost})
		return true
	})
	slices.SortStableFunc(res, func(a, b eval.Result) int {
		if a.Cost != b.Cost {
			return cmp.Compare(a.Cost, b.Cost)
		}
		return cmp.Compare(a.Root, b.Root)
	})
	if n > 0 && n < len(res) {
		res = res[:n]
	}
	return res, m, err
}

func sameResults(a, b []eval.Result) bool {
	if len(a) != len(b) {
		return false
	}
	am := make(map[xmltree.NodeID]cost.Cost, len(a))
	for _, r := range a {
		am[r.Root] = r.Cost
	}
	for _, r := range b {
		if c, ok := am[r.Root]; !ok || c != r.Cost {
			return false
		}
	}
	return true
}

// sameTopN compares best-n lists allowing ties at the cost boundary to
// resolve differently.
func sameTopN(a, b []eval.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Cost != b[i].Cost {
			return false
		}
	}
	return true
}

var propNames = []string{"a", "b", "c", "d"}
var propTerms = []string{"u", "v", "w", "x"}

func randomModel(rng *rand.Rand) *cost.Model {
	m := cost.NewModel()
	for _, n := range propNames {
		if rng.Intn(2) == 0 {
			m.SetInsert(n, cost.Struct, cost.Cost(1+rng.Intn(5)))
		}
		if rng.Intn(2) == 0 {
			m.SetDelete(n, cost.Struct, cost.Cost(1+rng.Intn(8)))
		}
		for _, to := range propNames {
			if to != n && rng.Intn(4) == 0 {
				m.AddRenaming(n, to, cost.Struct, cost.Cost(1+rng.Intn(6)))
			}
		}
	}
	for _, s := range propTerms {
		if rng.Intn(2) == 0 {
			m.SetDelete(s, cost.Text, cost.Cost(1+rng.Intn(8)))
		}
		for _, to := range propTerms {
			if to != s && rng.Intn(4) == 0 {
				m.AddRenaming(s, to, cost.Text, cost.Cost(1+rng.Intn(6)))
			}
		}
	}
	return m
}

func randomTree(rng *rand.Rand, model *cost.Model, maxNodes int) *xmltree.Tree {
	b := xmltree.NewBuilder(model)
	n := 2 + rng.Intn(maxNodes)
	var emit func(depth int)
	emit = func(depth int) {
		if b.Len() >= n {
			return
		}
		b.BeginElement(propNames[rng.Intn(len(propNames))])
		for b.Len() < n && rng.Intn(3) != 0 {
			if depth < 5 && rng.Intn(2) == 0 {
				emit(depth + 1)
			} else {
				b.Word(propTerms[rng.Intn(len(propTerms))])
			}
		}
		b.End()
	}
	for b.Len() < n {
		emit(0)
	}
	tree, err := b.Finish()
	if err != nil {
		panic(err)
	}
	return tree
}

func randomQuery(rng *rand.Rand, maxDepth int) *lang.Query {
	var expr func(depth int) string
	expr = func(depth int) string {
		switch {
		case depth >= maxDepth || rng.Intn(3) == 0:
			return `"` + propTerms[rng.Intn(len(propTerms))] + `"`
		case rng.Intn(4) == 0:
			return propNames[rng.Intn(len(propNames))]
		default:
			name := propNames[rng.Intn(len(propNames))]
			inner := expr(depth + 1)
			for rng.Intn(2) == 0 {
				op := " and "
				if rng.Intn(3) == 0 {
					op = " or "
				}
				inner += op + expr(depth+1)
			}
			return name + "[" + inner + "]"
		}
	}
	return lang.MustParse(propNames[rng.Intn(len(propNames))] + "[" + expr(1) + "]")
}

// TestSchemaDrivenMatchesDirectRandomized is the central integration
// property: for random data, cost models, and queries, the incremental
// schema-driven evaluation retrieves exactly the root-cost pairs of the
// direct evaluation — both for all results and for best-n prefixes.
func TestSchemaDrivenMatchesDirectRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7102))
	trials := 250
	if testing.Short() {
		trials = 50
	}
	for trial := 0; trial < trials; trial++ {
		model := randomModel(rng)
		tree := randomTree(rng, model, 50)
		q := randomQuery(rng, 3)
		x := lang.Expand(q, model)
		sch := schema.Build(tree)
		ix := index.Build(tree)

		direct, err := eval.New(tree, ix).BestN(x, 0)
		if err != nil {
			t.Fatal(err)
		}
		viaSchema, _, err := bestN(sch, sch, x, 0, exec.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if !sameResults(direct, viaSchema) {
			t.Errorf("trial %d: query %s\ntree:\n%s\ndirect: %v\nschema: %v",
				trial, q, tree.RenderString(0), direct, viaSchema)
			if trial > 3 {
				t.FailNow()
			}
			continue
		}
		// Best-n prefixes agree on costs.
		for _, n := range []int{1, 2, 3, 7} {
			d, err := eval.New(tree, ix).BestN(x, n)
			if err != nil {
				t.Fatal(err)
			}
			s, _, err := bestN(sch, sch, x, n, exec.Config{})
			if err != nil {
				t.Fatal(err)
			}
			if !sameTopN(d, s) {
				t.Fatalf("trial %d: BestN(%d) cost mismatch for %s:\ndirect: %v\nschema: %v",
					trial, n, q, d, s)
			}
		}
	}
}

// TestSecondLevelPrefixProperty: the second-level list for k is a prefix of
// the list for a larger k, up to reordering of equal-cost queries.
func TestSecondLevelPrefixProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	for trial := 0; trial < 30; trial++ {
		model := randomModel(rng)
		tree := randomTree(rng, model, 40)
		q := randomQuery(rng, 3)
		x := lang.Expand(q, model)
		sch := schema.Build(tree)

		small, err := kbest.NewEngine(sch, 3).SecondLevel(x)
		if err != nil {
			t.Fatal(err)
		}
		large, err := kbest.NewEngine(sch, 12).SecondLevel(x)
		if err != nil {
			t.Fatal(err)
		}
		if len(large) < len(small) {
			t.Fatalf("trial %d: larger k yields fewer queries", trial)
		}
		for i := range small {
			if small[i].Cost != large[i].Cost {
				t.Fatalf("trial %d: prefix cost mismatch at %d: %d vs %d",
					trial, i, small[i].Cost, large[i].Cost)
			}
		}
	}
}

// TestSignature: identical skeletons share a signature; different ones don't.
func TestSignature(t *testing.T) {
	_, sch := buildCatalog(t)
	q := lang.MustParse(`cd[title["concerto"]]`)
	x := lang.Expand(q, cost.PaperExample())
	lp, err := kbest.NewEngine(sch, 10).SecondLevel(x)
	if err != nil {
		t.Fatal(err)
	}
	sigs := make(map[string]int)
	for _, e := range lp {
		sigs[kbest.Signature(e)]++
	}
	for sig, n := range sigs {
		if n > 1 {
			t.Errorf("signature %q appears %d times among second-level queries", sig, n)
		}
	}
	lp2, err := kbest.NewEngine(sch, 10).SecondLevel(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range lp {
		if kbest.Signature(lp[i]) != kbest.Signature(lp2[i]) {
			t.Errorf("signatures unstable across engines at %d", i)
		}
	}
	if kbest.Render(lp[0]) == "" {
		t.Error("Render is empty")
	}
}

// TestLeafRule: skeletons that delete every leaf never become second-level
// queries.
func TestLeafRule(t *testing.T) {
	tree, err := xmltree.ParseXML(`<cd><x>nothing</x></cd>`)
	if err != nil {
		t.Fatal(err)
	}
	sch := schema.Build(tree)
	q := lang.MustParse(`cd["piano" and "concerto"]`)
	x := lang.Expand(q, cost.PaperExample())
	res, _, err := bestN(sch, sch, x, 0, exec.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("leafless results = %v", res)
	}
}
