package eval

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"approxql/internal/cost"
	"approxql/internal/index"
	"approxql/internal/lang"
	"approxql/internal/xmltree"
)

// The property tests cross-check algorithm primary (list algebra over
// indexes) against the reference evaluator (direct recursion over the
// closure semantics) on randomized trees, queries, and cost models.

var propNames = []string{"a", "b", "c", "d", "e"}
var propTerms = []string{"u", "v", "w", "x"}

// randomTree generates a small random data tree under the given model.
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

// randomModel generates a random cost model over the property vocabulary.
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
	for _, t := range propTerms {
		if rng.Intn(2) == 0 {
			m.SetDelete(t, cost.Text, cost.Cost(1+rng.Intn(8)))
		}
		for _, to := range propTerms {
			if to != t && rng.Intn(4) == 0 {
				m.AddRenaming(t, to, cost.Text, cost.Cost(1+rng.Intn(6)))
			}
		}
	}
	return m
}

// randomQuery generates a random query over the property vocabulary.
func randomQuery(rng *rand.Rand, maxDepth int) *lang.Query {
	var expr func(depth int) string
	expr = func(depth int) string {
		switch {
		case depth >= maxDepth || rng.Intn(3) == 0:
			return `"` + propTerms[rng.Intn(len(propTerms))] + `"`
		case rng.Intn(4) == 0:
			return propNames[rng.Intn(len(propNames))] // struct leaf
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
	src := propNames[rng.Intn(len(propNames))] + "[" + expr(1) + "]"
	return lang.MustParse(src)
}

func TestPrimaryMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2002))
	trials := 300
	if testing.Short() {
		trials = 60
	}
	for trial := 0; trial < trials; trial++ {
		model := randomModel(rng)
		tree := randomTree(rng, model, 40)
		q := randomQuery(rng, 3)

		want, err := Reference(tree, q, model)
		if err != nil {
			t.Fatalf("trial %d: Reference: %v", trial, err)
		}
		SortResults(want)

		x := lang.Expand(q, model)
		got, err := New(tree, index.Build(tree)).BestN(x, 0)
		if err != nil {
			t.Fatalf("trial %d: BestN: %v", trial, err)
		}

		if !resultsEqual(got, want) {
			t.Errorf("trial %d: query %s\ntree:\n%s\nprimary:   %v\nreference: %v",
				trial, q, tree.RenderString(0), got, want)
			if trial > 3 {
				t.FailNow()
			}
		}
	}
}

// TestPrimaryMatchesReferenceRenamingHeavy cross-checks the fused label
// variants of renamed nodes, serially and with forced forks. Every name and
// every term renames to every other, so each query node merges all labels
// of its kind and any nesting of elements in the random trees nests variants
// of one query label. One name and one term also rename to themselves at a
// non-zero cost, which puts their matches into two variants at once.
func TestPrimaryMatchesReferenceRenamingHeavy(t *testing.T) {
	old := forkMinEntries
	forkMinEntries = 1
	defer func() { forkMinEntries = old }()

	rng := rand.New(rand.NewSource(1966))
	trials := 200
	if testing.Short() {
		trials = 40
	}
	for trial := 0; trial < trials; trial++ {
		model := randomModel(rng)
		for _, vocab := range []struct {
			labels []string
			kind   cost.Kind
		}{{propNames, cost.Struct}, {propTerms, cost.Text}} {
			for _, from := range vocab.labels {
				for _, to := range vocab.labels {
					if to != from {
						model.AddRenaming(from, to, vocab.kind, cost.Cost(1+rng.Intn(6)))
					}
				}
			}
			self := vocab.labels[rng.Intn(len(vocab.labels))]
			model.AddRenaming(self, self, vocab.kind, cost.Cost(1+rng.Intn(4)))
		}
		tree := randomTree(rng, model, 60)
		q := randomQuery(rng, 3)

		want, err := Reference(tree, q, model)
		if err != nil {
			t.Fatalf("trial %d: Reference: %v", trial, err)
		}
		x := lang.Expand(q, model)
		ix := index.Build(tree)
		for _, workers := range []int{1, 4} {
			ev := New(tree, ix)
			ev.Parallelism = workers
			ev.ForceParallelism = true
			got, err := ev.BestN(x, 0)
			ev.Release()
			if err != nil {
				t.Fatalf("trial %d workers=%d: BestN: %v", trial, workers, err)
			}
			if !resultsEqual(got, want) {
				t.Fatalf("trial %d workers=%d: query %s\ntree:\n%s\nprimary:   %v\nreference: %v",
					trial, workers, q, tree.RenderString(0), got, want)
			}
		}
	}
}

// FuzzPrimaryMatchesReference runs the property test's comparison on
// fuzzer-chosen inputs: the seed drives randomModel, randomTree and
// randomQuery, and the two bytes size the tree and the query depth.
func FuzzPrimaryMatchesReference(f *testing.F) {
	for _, seed := range []int64{1, 514, 1966, 2002} {
		f.Add(seed, uint8(40), uint8(3))
	}
	f.Fuzz(func(t *testing.T, seed int64, nodes, depth uint8) {
		rng := rand.New(rand.NewSource(seed))
		model := randomModel(rng)
		tree := randomTree(rng, model, 1+int(nodes)%60)
		q := randomQuery(rng, 1+int(depth)%3)
		want, err := Reference(tree, q, model)
		if err != nil {
			t.Fatalf("Reference: %v", err)
		}
		got, err := New(tree, index.Build(tree)).BestN(lang.Expand(q, model), 0)
		if err != nil {
			t.Fatalf("BestN: %v", err)
		}
		if !resultsEqual(got, want) {
			t.Fatalf("query %s\ntree:\n%s\nprimary:   %v\nreference: %v",
				q, tree.RenderString(0), got, want)
		}
	})
}

// resultsEqual compares result lists up to reordering of equal-cost entries.
func resultsEqual(a, b []Result) bool {
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

// TestPrimaryMatchesReferenceOnPaperModel pins the comparison to the
// Section 6 cost table over random catalog-like data.
func TestPrimaryMatchesReferenceOnPaperModel(t *testing.T) {
	rng := rand.New(rand.NewSource(514))
	model := cost.PaperExample()
	names := []string{"catalog", "cd", "mc", "dvd", "title", "composer", "performer", "tracks", "track", "category"}
	terms := []string{"piano", "concerto", "sonata", "rachmaninov", "ashkenazy", "vivace"}
	queries := []string{
		`cd[title["concerto"]]`,
		`cd[title["piano" and "concerto"]]`,
		`cd[track[title["piano" and "concerto"]] and composer["rachmaninov"]]`,
		`cd[title["piano" and ("concerto" or "sonata")] and (composer["rachmaninov"] or performer["ashkenazy"])]`,
		`cd[tracks[track[title["vivace"]]]]`,
	}
	trials := 60
	if testing.Short() {
		trials = 15
	}
	for trial := 0; trial < trials; trial++ {
		tree := randomLabeledTree(rng, model, names, terms, 50)
		ix := index.Build(tree)
		for _, src := range queries {
			q := lang.MustParse(src)
			want, err := Reference(tree, q, model)
			if err != nil {
				t.Fatal(err)
			}
			SortResults(want)
			got, err := New(tree, ix).BestN(lang.Expand(q, model), 0)
			if err != nil {
				t.Fatal(err)
			}
			if !resultsEqual(got, want) {
				t.Fatalf("trial %d query %s:\ntree:\n%s\nprimary:   %v\nreference: %v",
					trial, src, tree.RenderString(0), got, want)
			}
		}
	}
}

func randomLabeledTree(rng *rand.Rand, model *cost.Model, names, terms []string, maxNodes int) *xmltree.Tree {
	b := xmltree.NewBuilder(model)
	n := 5 + rng.Intn(maxNodes)
	var emit func(depth int)
	emit = func(depth int) {
		if b.Len() >= n {
			return
		}
		b.BeginElement(names[rng.Intn(len(names))])
		for b.Len() < n && rng.Intn(4) != 0 {
			if depth < 5 && rng.Intn(2) == 0 {
				emit(depth + 1)
			} else {
				b.Word(terms[rng.Intn(len(terms))])
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

// TestBestNIsPrefixOfAll: pruning after n must agree with the full sorted
// result list (Definition 12).
func TestBestNIsPrefixOfAll(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		model := randomModel(rng)
		tree := randomTree(rng, model, 60)
		q := randomQuery(rng, 3)
		x := lang.Expand(q, model)
		ix := index.Build(tree)
		all, err := New(tree, ix).BestN(x, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 2, 5, len(all), len(all) + 10} {
			got, err := New(tree, ix).BestN(x, n)
			if err != nil {
				t.Fatal(err)
			}
			wantLen := n
			if wantLen > len(all) {
				wantLen = len(all)
			}
			if !reflect.DeepEqual(got, all[:wantLen]) {
				t.Fatalf("trial %d: BestN(%d) = %v, want prefix of %v", trial, n, got, all)
			}
		}
	}
}

// TestCostsAreNonNegativeAndMonotone: result costs are non-negative, and
// making the model more permissive never removes results.
func TestCostsAreNonNegativeAndMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		strict := cost.NewModel()
		loose := randomModel(rng)
		tree := randomTree(rng, loose, 50)
		q := randomQuery(rng, 3)
		ix := index.Build(tree)

		strictRes, err := New(tree, ix).BestN(lang.Expand(q, strict), 0)
		if err != nil {
			t.Fatal(err)
		}
		looseRes, err := New(tree, ix).BestN(lang.Expand(q, loose), 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range looseRes {
			if r.Cost < 0 {
				t.Fatalf("negative cost %v", r)
			}
		}
		looseRoots := make(map[xmltree.NodeID]cost.Cost)
		for _, r := range looseRes {
			looseRoots[r.Root] = r.Cost
		}
		for _, r := range strictRes {
			c, ok := looseRoots[r.Root]
			if !ok {
				t.Fatalf("trial %d: result %v lost under looser model (query %s)", trial, r, q)
			}
			if c > r.Cost {
				t.Fatalf("trial %d: cost rose under looser model: %d > %d", trial, c, r.Cost)
			}
		}
	}
}

// TestEvaluatorReuseAcrossQueries: one evaluator can serve several queries;
// the fetch cache must not leak costs between them.
func TestEvaluatorReuseAcrossQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	model := randomModel(rng)
	tree := randomTree(rng, model, 60)
	ix := index.Build(tree)
	ev := New(tree, ix)
	for trial := 0; trial < 20; trial++ {
		q := randomQuery(rng, 3)
		x := lang.Expand(q, model)
		got, err := ev.BestN(x, 0)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := New(tree, ix).BestN(x, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, fresh) {
			t.Fatalf("trial %d: reused evaluator differs: %v vs %v", trial, got, fresh)
		}
	}
}

func ExampleEvaluator_BestN() {
	tree, _ := xmltree.ParseXML(`<catalog><cd><title>Piano Concerto</title></cd></catalog>`)
	q := lang.MustParse(`cd[title["piano"]]`)
	x := lang.Expand(q, cost.NewModel())
	res, _ := New(tree, index.Build(tree)).BestN(x, 1)
	fmt.Println(len(res), res[0].Cost)
	// Output: 1 0
}
