package eval

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"approxql/internal/cost"
	"approxql/internal/index"
	"approxql/internal/lang"
	"approxql/internal/xmltree"
)

// catalogXML mirrors the paper's running example (Figures 1 and 3): a CD
// with matching title and composer, a CD with the title buried in tracks,
// and an MC.
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

// buildCatalog parses catalogXML under the Section 6 cost table and returns
// the tree, its index, and the preorder numbers of cd1, cd2, and mc.
func buildCatalog(t *testing.T) (*xmltree.Tree, *index.Memory, [3]xmltree.NodeID) {
	t.Helper()
	b := xmltree.NewBuilder(cost.PaperExample())
	if err := b.AddDocument(strings.NewReader(catalogXML)); err != nil {
		t.Fatal(err)
	}
	tree, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	var roots [3]xmltree.NodeID
	i := 0
	for u := xmltree.NodeID(0); u < xmltree.NodeID(tree.Len()); u++ {
		if l := tree.Label(u); (l == "cd" || l == "mc") && tree.Kind(u) == cost.Struct {
			roots[i] = u
			i++
		}
	}
	if i != 3 {
		t.Fatalf("found %d catalog entries", i)
	}
	return tree, index.Build(tree), roots
}

func bestN(t *testing.T, tree *xmltree.Tree, ix index.Source, query string, model *cost.Model, n int) []Result {
	t.Helper()
	q, err := lang.Parse(query)
	if err != nil {
		t.Fatalf("Parse(%q): %v", query, err)
	}
	x := lang.Expand(q, model)
	res, err := New(tree, ix).BestN(x, n)
	if err != nil {
		t.Fatalf("BestN(%q): %v", query, err)
	}
	return res
}

// TestPaperWorkedExampleSingleTitle checks hand-computed costs for
// cd[title["concerto"]] under the Section 6 cost table:
//
//	cd1: exact match, cost 0
//	mc:  root renamed cd→mc, cost 4
//	cd2: title reached through tracks+track (insert cost 1+1) with
//	     "concerto" renamed to "sonata" (3), cost 5
func TestPaperWorkedExampleSingleTitle(t *testing.T) {
	tree, ix, roots := buildCatalog(t)
	res := bestN(t, tree, ix, `cd[title["concerto"]]`, cost.PaperExample(), 0)
	want := []Result{
		{Root: roots[0], Cost: 0},
		{Root: roots[2], Cost: 4},
		{Root: roots[1], Cost: 5},
	}
	if !reflect.DeepEqual(res, want) {
		t.Errorf("results = %v, want %v", res, want)
	}
}

// TestPaperWorkedExampleFullQuery: the full running example matches only the
// first CD (the others lack any composer/performer subtree).
func TestPaperWorkedExampleFullQuery(t *testing.T) {
	tree, ix, roots := buildCatalog(t)
	res := bestN(t, tree, ix,
		`cd[track[title["piano" and "concerto"]] and composer["rachmaninov"]]`,
		cost.PaperExample(), 0)
	// cd1: title is a direct child, so the query's track node must be
	// deleted (cost 3); everything else matches exactly.
	want := []Result{{Root: roots[0], Cost: 3}}
	if !reflect.DeepEqual(res, want) {
		t.Errorf("results = %v, want %v", res, want)
	}
}

// TestPaperWorkedExampleBooleanTitle: cd[title["piano" and "concerto"]].
//
//	cd1: 0
//	cd2: distance 2 to the nested title + rename concerto→sonata 3 = 5
//	mc:  rename cd→mc 4 + delete "piano" 8 = 12
func TestPaperWorkedExampleBooleanTitle(t *testing.T) {
	tree, ix, roots := buildCatalog(t)
	res := bestN(t, tree, ix, `cd[title["piano" and "concerto"]]`, cost.PaperExample(), 0)
	want := []Result{
		{Root: roots[0], Cost: 0},
		{Root: roots[1], Cost: 5},
		{Root: roots[2], Cost: 12},
	}
	if !reflect.DeepEqual(res, want) {
		t.Errorf("results = %v, want %v", res, want)
	}
}

// TestPaperWorkedExampleOr: cd[title["concerto" or "sonata"]].
func TestPaperWorkedExampleOr(t *testing.T) {
	tree, ix, roots := buildCatalog(t)
	res := bestN(t, tree, ix, `cd[title["concerto" or "sonata"]]`, cost.PaperExample(), 0)
	want := []Result{
		{Root: roots[0], Cost: 0},
		{Root: roots[1], Cost: 2}, // sonata exact, distance 2
		{Root: roots[2], Cost: 4}, // root renamed
	}
	if !reflect.DeepEqual(res, want) {
		t.Errorf("results = %v, want %v", res, want)
	}
}

// TestLeafRuleRejectsLeaflessEmbeddings: embeddings that delete every query
// leaf are rejected (Section 6.5, full version).
func TestLeafRuleRejectsLeaflessEmbeddings(t *testing.T) {
	tree, err := xmltree.ParseXML(`<cd><x>nothing</x></cd>`)
	if err != nil {
		t.Fatal(err)
	}
	ix := index.Build(tree)
	res := bestN(t, tree, ix, `cd["piano" and "concerto"]`, cost.PaperExample(), 0)
	if len(res) != 0 {
		t.Errorf("leafless embedding accepted: %v", res)
	}
}

// TestExactSemanticsUnderDefaultModel: the default model forbids every
// transformation except insertions, so only truly containing subtrees match.
func TestExactSemanticsUnderDefaultModel(t *testing.T) {
	tree, ix, roots := buildCatalog(t)
	res := bestN(t, tree, ix, `cd[title["concerto"]]`, cost.NewModel(), 0)
	want := []Result{{Root: roots[0], Cost: 0}}
	if !reflect.DeepEqual(res, want) {
		t.Errorf("results = %v, want %v", res, want)
	}
	// mc[title["concerto"]] only matches the MC.
	res2 := bestN(t, tree, ix, `mc[title["concerto"]]`, cost.NewModel(), 0)
	if len(res2) != 1 || res2[0].Root != roots[2] || res2[0].Cost != 0 {
		t.Errorf("mc results = %v", res2)
	}
}

// TestInsertionCostsRankDeeperMatchesLower: with everything exact, a match
// that needs more implicit insertions costs more.
func TestInsertionCostsRankDeeperMatchesLower(t *testing.T) {
	tree, err := xmltree.ParseXML(`
<lib>
  <cd><title>X</title></cd>
  <cd><box><title>X</title></box></cd>
  <cd><box><inner><title>X</title></inner></box></cd>
</lib>`)
	if err != nil {
		t.Fatal(err)
	}
	ix := index.Build(tree)
	res := bestN(t, tree, ix, `cd[title["x"]]`, cost.NewModel(), 0)
	if len(res) != 3 {
		t.Fatalf("results = %v", res)
	}
	if res[0].Cost != 0 || res[1].Cost != 1 || res[2].Cost != 2 {
		t.Errorf("costs = %d,%d,%d; want 0,1,2", res[0].Cost, res[1].Cost, res[2].Cost)
	}
}

// TestBareRootQuery: a query with no containment matches every node with
// the root label (or a renaming of it) at the renaming cost.
func TestBareRootQuery(t *testing.T) {
	tree, ix, roots := buildCatalog(t)
	res := bestN(t, tree, ix, `cd`, cost.PaperExample(), 0)
	want := []Result{
		{Root: roots[0], Cost: 0},
		{Root: roots[1], Cost: 0},
		{Root: roots[2], Cost: 4},
	}
	if !reflect.DeepEqual(res, want) {
		t.Errorf("results = %v, want %v", res, want)
	}
}

// TestBestNPrunes: n limits and sorts the result list.
func TestBestNPrunes(t *testing.T) {
	tree, ix, roots := buildCatalog(t)
	res := bestN(t, tree, ix, `cd[title["concerto"]]`, cost.PaperExample(), 2)
	if len(res) != 2 || res[0].Root != roots[0] || res[1].Root != roots[2] {
		t.Errorf("BestN(2) = %v", res)
	}
	res1 := bestN(t, tree, ix, `cd[title["concerto"]]`, cost.PaperExample(), 1)
	if len(res1) != 1 || res1[0].Cost != 0 {
		t.Errorf("BestN(1) = %v", res1)
	}
}

// TestNestedSameLabelAncestors exercises the join stack with recursive
// labels (l > 1): sections nested in sections.
func TestNestedSameLabelAncestors(t *testing.T) {
	tree, err := xmltree.ParseXML(`
<doc>
  <sec>
    <sec>
      <p>target</p>
    </sec>
    <p>other</p>
  </sec>
  <sec><p>target</p></sec>
</doc>`)
	if err != nil {
		t.Fatal(err)
	}
	ix := index.Build(tree)
	res := bestN(t, tree, ix, `sec[p["target"]]`, cost.NewModel(), 0)
	// Matches: outer sec (via inner, distance 1... the inner sec counts as
	// an inserted node), inner sec (0), last sec (0).
	if len(res) != 3 {
		t.Fatalf("results = %v, want 3", res)
	}
	if res[0].Cost != 0 || res[1].Cost != 0 || res[2].Cost != 1 {
		t.Errorf("costs = %v", res)
	}
}

// TestStructLeafSelector: a childless name selector is a leaf of type
// struct and fetches from the struct index.
func TestStructLeafSelector(t *testing.T) {
	tree, err := xmltree.ParseXML(`
<lib>
  <cd><bonus/><title>X</title></cd>
  <cd><title>X</title></cd>
</lib>`)
	if err != nil {
		t.Fatal(err)
	}
	ix := index.Build(tree)
	res := bestN(t, tree, ix, `cd[bonus]`, cost.NewModel(), 0)
	if len(res) != 1 || res[0].Cost != 0 {
		t.Fatalf("results = %v", res)
	}
	// With a finite delete cost for bonus, the second cd matches too, but
	// only when another leaf keeps the embedding alive.
	m := cost.NewModel()
	m.SetDelete("bonus", cost.Struct, 2)
	res2 := bestN(t, tree, ix, `cd[bonus and title["x"]]`, m, 0)
	if len(res2) != 2 {
		t.Fatalf("results = %v, want 2", res2)
	}
	if res2[0].Cost != 0 || res2[1].Cost != 2 {
		t.Errorf("costs = %v", res2)
	}
}

// TestDeletionOfInnerNodeRelocatesChildren: deleting the track node lets its
// content match directly under the cd (Definition 3's motivating example).
func TestDeletionOfInnerNodeRelocatesChildren(t *testing.T) {
	tree, err := xmltree.ParseXML(`<cd><title>Concerto</title></cd>`)
	if err != nil {
		t.Fatal(err)
	}
	ix := index.Build(tree)
	m := cost.NewModel()
	m.SetDelete("track", cost.Struct, 3)
	res := bestN(t, tree, ix, `cd[track[title["concerto"]]]`, m, 0)
	if len(res) != 1 || res[0].Cost != 3 {
		t.Fatalf("results = %v, want one result of cost 3", res)
	}
}

// TestMissingLabelsEverywhere: queries over labels absent from the data.
func TestMissingLabelsEverywhere(t *testing.T) {
	tree, ix, _ := buildCatalog(t)
	if res := bestN(t, tree, ix, `dvd[title["concerto"]]`, cost.NewModel(), 0); len(res) != 0 {
		t.Errorf("dvd results = %v", res)
	}
	if res := bestN(t, tree, ix, `cd[title["zzz"]]`, cost.NewModel(), 0); len(res) != 0 {
		t.Errorf("zzz results = %v", res)
	}
}

// TestStatsAndMemo: the DP memo fires on shared deletion bridges, and
// disabling it changes counters but not results.
func TestStatsAndMemo(t *testing.T) {
	tree, ix, _ := buildCatalog(t)
	q := lang.MustParse(`cd[track[title["piano" and "concerto"]] and composer["rachmaninov"]]`)
	x := lang.Expand(q, cost.PaperExample())

	ev := New(tree, ix)
	res, err := ev.BestN(x, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Stats().MemoHits == 0 {
		t.Error("no memo hits on a query with deletion bridges")
	}

	ev2 := New(tree, ix)
	ev2.DisableMemo = true
	res2, err := ev2.BestN(x, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, res2) {
		t.Errorf("memo changes results: %v vs %v", res, res2)
	}
	if ev2.Stats().ListOps <= ev.Stats().ListOps {
		t.Errorf("DisableMemo did not increase work: %d vs %d ops",
			ev2.Stats().ListOps, ev.Stats().ListOps)
	}
}

// TestRenamedNodeEvaluatesContentOnce pins the fused label variants: a
// renamed node merges the matches of all its labels and evaluates its
// content once against them, so the list operations of a query do not grow
// with the number of renamings. Each variant label matches, so dropping a
// variant would also show in the result count.
func TestRenamedNodeEvaluatesContentOnce(t *testing.T) {
	tree, err := xmltree.ParseXML(`
<r>
  <a><b>u</b><x1><b>u</b></x1></a>
  <x2><b>u</b><x3><b>u</b><x4><b>u</b></x4></x3></x2>
</r>`)
	if err != nil {
		t.Fatal(err)
	}
	ix := index.Build(tree)
	q := lang.MustParse(`a[b["u"]]`)
	ops := -1
	for _, r := range []int{1, 2, 4} {
		m := cost.NewModel()
		for k := 1; k <= r; k++ {
			m.AddRenaming("a", fmt.Sprintf("x%d", k), cost.Struct, cost.Cost(k))
		}
		ev := New(tree, ix)
		res, err := ev.BestN(lang.Expand(q, m), 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 1+r {
			t.Errorf("r=%d: %d results, want %d: %v", r, len(res), 1+r, res)
		}
		got := ev.Stats().ListOps
		if ops >= 0 && got != ops {
			t.Errorf("r=%d: %d list operations, want %d as with fewer renamings", r, got, ops)
		}
		ops = got
	}
}

// TestUnmatchedLeafWritesNoEntries pins the sparse outerjoin: a query leaf
// that matches nowhere costs its deletion as the list default instead of
// one entry per ancestor, so a query whose leaves match few ancestors
// writes little beyond its label variants. Dense lists would write every
// a once per outerjoin and once more per intersect.
func TestUnmatchedLeafWritesNoEntries(t *testing.T) {
	const as = 500
	tree, err := xmltree.ParseXML("<r>" + strings.Repeat("<a><c/></a>", as) + "<a><b/></a></r>")
	if err != nil {
		t.Fatal(err)
	}
	m := cost.NewModel()
	m.SetDelete("b", cost.Struct, 2)
	m.SetDelete("absent", cost.Text, 3)
	ev := New(tree, index.Build(tree))
	res, err := ev.BestN(lang.Expand(lang.MustParse(`a[b and "absent"]`), m), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Only the a holding b matches a leaf: b matched, "absent" deleted.
	if len(res) != 1 || res[0].Cost != 3 {
		t.Fatalf("results = %v, want one at cost 3", res)
	}
	variants := as + 1 + 1 // every a, the one b, no "absent"
	if got := ev.Stats().ArenaEntries; got > variants+4 {
		t.Errorf("arena entries = %d, want at most the %d variant entries plus 4", got, variants)
	}
}

// TestBestNContextStopsAndRecovers stops an evaluation mid-way and then
// reruns the query on the same evaluator: the stopped steps were not
// memoized, so the rerun returns the full ranking.
func TestBestNContextStopsAndRecovers(t *testing.T) {
	tree, ix, model := catalogFixture()
	x := lang.Expand(lang.MustParse(`cd[track[title["piano" and "concerto"]] and composer["rachmaninov"]]`), model)
	want, err := New(tree, ix).BestN(x, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ev := New(tree, &cancelOnFetch{Source: ix, cancel: cancel, after: 3})
	if res, err := ev.BestNContext(ctx, x, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("stopped evaluation returned %v, %v; want context.Canceled", res, err)
	}
	got, err := ev.BestN(x, 0)
	if err != nil {
		t.Fatalf("rerun: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("rerun after a stop = %v, want %v", got, want)
	}
}

// cancelOnFetch cancels a context on its after-th posting fetch.
type cancelOnFetch struct {
	index.Source
	cancel context.CancelFunc
	after  int32
	calls  atomic.Int32
}

func (c *cancelOnFetch) fetched() {
	if c.calls.Add(1) == c.after {
		c.cancel()
	}
}

func (c *cancelOnFetch) Struct(name string) ([]xmltree.NodeID, error) {
	c.fetched()
	return c.Source.Struct(name)
}

func (c *cancelOnFetch) Text(term string) ([]xmltree.NodeID, error) {
	c.fetched()
	return c.Source.Text(term)
}
