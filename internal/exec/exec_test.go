package exec_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"approxql/internal/cost"
	"approxql/internal/datagen"
	"approxql/internal/exec"
	"approxql/internal/index"
	"approxql/internal/kbest"
	"approxql/internal/lang"
	"approxql/internal/querygen"
	"approxql/internal/schema"
	"approxql/internal/xmltree"
)

// testWorld is a synthetic multi-label collection plus generated queries:
// the workload the paper's experiments run, scaled down for tests.
type testWorld struct {
	tree *xmltree.Tree
	sch  *schema.Schema
	gen  *querygen.Generator
}

var world *testWorld

func getWorld(t *testing.T) *testWorld {
	t.Helper()
	if world != nil {
		return world
	}
	cfg := datagen.Default(7).Scale(0.02) // ~2000 elements, ~20k words
	g, err := datagen.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := xmltree.NewBuilder(nil)
	for !g.Done() {
		g.GenerateDocument(b)
	}
	tree, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	qg, err := querygen.New(tree, 11)
	if err != nil {
		t.Fatal(err)
	}
	world = &testWorld{tree: tree, sch: schema.Build(tree), gen: qg}
	return world
}

func collect(t *testing.T, eng *exec.Engine, x *lang.Expanded) []exec.Item {
	t.Helper()
	var items []exec.Item
	if err := eng.Run(context.Background(), x, func(it exec.Item) bool {
		items = append(items, it)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return items
}

// TestParallelEarlyStop verifies the Stream contract: when the emit
// callback stops the run, Run returns nil promptly without draining the
// remaining second-level queries into the callback.
func TestParallelEarlyStop(t *testing.T) {
	w := getWorld(t)
	var (
		x   *lang.Expanded
		all []exec.Item
	)
	for seed := 0; seed < 20 && len(all) < 3; seed++ {
		g, err := w.gen.Generate(querygen.PaperPatterns[seed%len(querygen.PaperPatterns)], 10)
		if err != nil {
			t.Fatal(err)
		}
		x = lang.Expand(g.Query, g.Model)
		all = collect(t, exec.New(w.sch, w.sch, exec.Config{}), x)
	}
	if len(all) < 3 {
		t.Skipf("workload too small: %d results", len(all))
	}

	var got []exec.Item
	err := exec.New(w.sch, w.sch, exec.Config{}).Run(context.Background(), x,
		func(it exec.Item) bool {
			got = append(got, it)
			return len(got) < 3
		})
	if err != nil {
		t.Fatalf("early-stopped run: %v", err)
	}
	if len(got) != 3 {
		t.Fatalf("callback saw %d items after stopping at 3", len(got))
	}
	for i := range got {
		if got[i].Root != all[i].Root || got[i].Cost != all[i].Cost {
			t.Fatalf("item %d differs from full run", i)
		}
	}
}

// cancellingSec cancels a context after a fixed number of secondary-index
// fetches, simulating cancellation arriving between second-level queries.
type cancellingSec struct {
	schema.SecSource
	cancel context.CancelFunc
	after  int32
	calls  atomic.Int32
}

func (c *cancellingSec) SecInstances(id schema.NodeID) ([]xmltree.NodeID, error) {
	if c.calls.Add(1) == c.after {
		c.cancel()
	}
	return c.SecSource.SecInstances(id)
}

func (c *cancellingSec) SecTermInstances(id schema.NodeID, term string) ([]xmltree.NodeID, error) {
	if c.calls.Add(1) == c.after {
		c.cancel()
	}
	return c.SecSource.SecTermInstances(id, term)
}

// TestParallelCancellationMidRound cancels the context from inside the
// secondary index: the run must stop promptly and return ctx.Err() instead
// of running the rest of the plan stream.
func TestParallelCancellationMidRound(t *testing.T) {
	w := getWorld(t)
	g, err := w.gen.Generate(querygen.PaperPatterns[1], 5)
	if err != nil {
		t.Fatal(err)
	}
	x := lang.Expand(g.Query, g.Model)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sec := &cancellingSec{SecSource: w.sch, cancel: cancel, after: 3}
	var m exec.Metrics
	err = exec.New(w.sch, sec, exec.Config{Metrics: &m}).Run(ctx, x,
		func(exec.Item) bool { return true })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	if m.Executed == 0 {
		t.Fatal("cancellation fired before any execution")
	}
}

// cancellingSource cancels a context on its first posting fetch, so the
// cancellation arrives after evaluation has started.
type cancellingSource struct {
	index.Source
	cancel context.CancelFunc
}

func (c *cancellingSource) Struct(name string) ([]xmltree.NodeID, error) {
	c.cancel()
	return c.Source.Struct(name)
}

func (c *cancellingSource) Text(term string) ([]xmltree.NodeID, error) {
	c.cancel()
	return c.Source.Text(term)
}

// TestDirectCancellationMidEvaluation cancels the context from inside the
// posting source: Direct must stop at the next evaluation step and return
// ctx.Err(), not a ranking.
func TestDirectCancellationMidEvaluation(t *testing.T) {
	w := getWorld(t)
	g, err := w.gen.Generate(querygen.PaperPatterns[1], 5)
	if err != nil {
		t.Fatal(err)
	}
	x := lang.Expand(g.Query, g.Model)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := &cancellingSource{Source: index.Build(w.tree), cancel: cancel}
	res, err := exec.Direct(ctx, w.tree, src, x, 0, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Direct returned %d results and error %v, want context.Canceled", len(res), err)
	}
}

// TestPreCancelledContext: a context cancelled before Run starts returns
// ctx.Err() without planning or executing anything.
func TestPreCancelledContext(t *testing.T) {
	w := getWorld(t)
	g, err := w.gen.Generate(querygen.PaperPatterns[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	x := lang.Expand(g.Query, g.Model)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var m exec.Metrics
	err = exec.New(w.sch, w.sch, exec.Config{Metrics: &m}).Run(ctx, x,
		func(exec.Item) bool { t.Fatal("emit called under cancelled context"); return false })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	if m.Rounds != 0 || m.Executed != 0 {
		t.Fatalf("work done under cancelled context: %+v", m)
	}
}

// TestMetricsAccounting checks the invariants of the per-stage counters.
func TestMetricsAccounting(t *testing.T) {
	w := getWorld(t)
	g, err := w.gen.Generate(querygen.PaperPatterns[1], 5)
	if err != nil {
		t.Fatal(err)
	}
	x := lang.Expand(g.Query, g.Model)
	var m exec.Metrics
	items := collect(t, exec.New(w.sch, w.sch, exec.Config{N: 10, Metrics: &m}), x)

	if m.Rounds != 1 {
		t.Errorf("rounds = %d, want one plan stream", m.Rounds)
	}
	if m.FinalK != m.Planned {
		t.Errorf("FinalK = %d, planned %d", m.FinalK, m.Planned)
	}
	// Every pulled query is executed or deduped: the run stops right after
	// the query that delivers the 10th result, pulling nothing beyond it.
	if m.Planned != m.Executed+m.Deduped {
		t.Errorf("planned %d != executed %d + deduped %d", m.Planned, m.Executed, m.Deduped)
	}
	if m.EmptyExecuted > m.Executed {
		t.Errorf("empty %d > executed %d", m.EmptyExecuted, m.Executed)
	}
	if m.ResultsEmitted != len(items) {
		t.Errorf("ResultsEmitted = %d, emitted %d", m.ResultsEmitted, len(items))
	}
	if m.Executed > 0 && m.SecondaryFetches == 0 {
		t.Error("no secondary fetches recorded despite executions")
	}
	if m.SchemaFetches == 0 || m.ListOps == 0 {
		t.Errorf("planning counters empty: %+v", m)
	}
	if s := m.String(); len(s) == 0 {
		t.Error("empty metrics rendering")
	}

	// An all-results run executes every query it pulls once.
	var all exec.Metrics
	collect(t, exec.New(w.sch, w.sch, exec.Config{Metrics: &all}), x)
	if all.Planned != all.Executed+all.Deduped {
		t.Errorf("all results: planned %d != executed %d + deduped %d", all.Planned, all.Executed, all.Deduped)
	}
}

// TestExecutedCountsRunQueries: a run that wants one result stops at the
// first second-level query returning roots, and Executed counts the queries
// run up to and including it, none after it.
func TestExecutedCountsRunQueries(t *testing.T) {
	w := getWorld(t)
	checked := 0
	for pi, pattern := range querygen.PaperPatterns {
		for _, renamings := range []int{0, 5} {
			g, err := w.gen.Generate(pattern, renamings)
			if err != nil {
				t.Fatal(err)
			}
			x := lang.Expand(g.Query, g.Model)
			var m exec.Metrics
			eng := exec.New(w.sch, w.sch, exec.Config{N: 1, Metrics: &m})
			if items := collect(t, eng, x); len(items) != 1 || m.Rounds != 1 {
				continue // no result, or the first round found none
			}
			plans, err := eng.Explain(context.Background(), x, m.FinalK)
			if err != nil {
				t.Fatal(err)
			}
			first := 0
			for first < len(plans) && plans[first].Results == 0 {
				first++
			}
			if m.Executed != first+1 {
				t.Errorf("pattern%d/renamings=%d: Executed = %d, first query with roots is number %d of %d planned",
					pi+1, renamings, m.Executed, first+1, len(plans))
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no query found its result in the first round")
	}
}

// TestDerivedBoundTerminates: with a tiny schema the plan space is small,
// and a query that exhausts its plan stream stops there without marking
// the answer truncated.
func TestDerivedBoundTerminates(t *testing.T) {
	b := xmltree.NewBuilder(cost.PaperExample())
	doc := `<catalog><cd><title>concerto</title></cd><mc><title>sonata</title></mc></catalog>`
	if err := b.AddDocument(strings.NewReader(doc)); err != nil {
		t.Fatal(err)
	}
	tree, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	sch := schema.Build(tree)
	q, err := lang.Parse(`cd[title["concerto"]]`)
	if err != nil {
		t.Fatal(err)
	}
	x := lang.Expand(q, cost.PaperExample())
	var m exec.Metrics
	items := collect(t, exec.New(sch, sch, exec.Config{Metrics: &m}), x)
	if len(items) == 0 {
		t.Fatal("no results")
	}
	if m.Truncated {
		t.Errorf("an exhausted plan stream marked truncated: %+v", m)
	}
	if m.Planned == 0 {
		t.Error("pulled no second-level query")
	}
}

// TestMaxKCapsPulls: MaxK caps the second-level queries pulled, and the
// run reports Truncated only when the stream had more.
func TestMaxKCapsPulls(t *testing.T) {
	w := getWorld(t)
	g, err := w.gen.Generate(querygen.PaperPatterns[1], 5)
	if err != nil {
		t.Fatal(err)
	}
	x := lang.Expand(g.Query, g.Model)
	var all exec.Metrics
	collect(t, exec.New(w.sch, w.sch, exec.Config{Metrics: &all}), x)
	if all.Planned < 2 || all.Truncated {
		t.Fatalf("uncapped run: %+v", all)
	}
	var capped exec.Metrics
	collect(t, exec.New(w.sch, w.sch, exec.Config{MaxK: 1, Metrics: &capped}), x)
	if capped.Planned != 1 || !capped.Truncated {
		t.Errorf("MaxK 1: planned %d, truncated %v", capped.Planned, capped.Truncated)
	}
	var exact exec.Metrics
	collect(t, exec.New(w.sch, w.sch, exec.Config{MaxK: all.Planned, Metrics: &exact}), x)
	if exact.Planned != all.Planned || exact.Truncated {
		t.Errorf("MaxK = stream length: planned %d of %d, truncated %v", exact.Planned, all.Planned, exact.Truncated)
	}
}

// TestEmptyExecuted pins the count of executed second-level queries that
// retrieve nothing. Both terms occur in the one text class below
// cd/title, but no title holds both, so the exact skeleton is planned,
// executed, and empty; the next one, which deletes "bach", finds the first
// cd.
func TestEmptyExecuted(t *testing.T) {
	model := cost.NewModel()
	model.SetDelete("bach", cost.Text, 3)
	b := xmltree.NewBuilder(model)
	doc := `<catalog><cd><title>concerto</title></cd><cd><title>bach</title></cd></catalog>`
	if err := b.AddDocument(strings.NewReader(doc)); err != nil {
		t.Fatal(err)
	}
	tree, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	sch := schema.Build(tree)
	x := lang.Expand(lang.MustParse(`cd[title["concerto" and "bach"]]`), model)
	var m exec.Metrics
	items := collect(t, exec.New(sch, sch, exec.Config{N: 1, Metrics: &m}), x)
	if len(items) != 1 || items[0].Cost != 3 {
		t.Fatalf("items = %+v, want one result at cost 3", items)
	}
	if m.Executed != 2 || m.EmptyExecuted != 1 {
		t.Errorf("executed %d, empty %d; want 2 and 1", m.Executed, m.EmptyExecuted)
	}
	if !strings.Contains(m.String(), "executed          2  (1 empty)") {
		t.Errorf("metrics report lacks the empty count:\n%s", m.String())
	}
}

// TestExplainCountOnly: the Explain path reports the same counts as full
// secondary execution.
func TestExplainCountOnly(t *testing.T) {
	w := getWorld(t)
	g, err := w.gen.Generate(querygen.PaperPatterns[0], 5)
	if err != nil {
		t.Fatal(err)
	}
	x := lang.Expand(g.Query, g.Model)
	eng := exec.New(w.sch, w.sch, exec.Config{})
	plans, err := eng.Explain(context.Background(), x, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) == 0 {
		t.Fatal("no plans")
	}
	en := kbest.NewEngine(w.sch, 10)
	for i, p := range plans {
		roots, err := en.Secondary(p.Entry)
		if err != nil {
			t.Fatal(err)
		}
		if len(roots) != p.Results {
			t.Errorf("plan %d: count-only says %d results, execution finds %d", i, p.Results, len(roots))
		}
	}
}

// TestExternalBound: with an external cost bound installed, the engine
// emits exactly the prefix of the unbounded emission whose cost does not
// exceed the bound (equal costs survive — a merging heap can still accept
// them), reports skipped queries, and stops the k-growing loop early. A
// constant bound cuts the planned list before execution; a bound that is
// unknown when the round is cut and tightens afterwards stops the round
// between two second-level queries.
func TestExternalBound(t *testing.T) {
	w := getWorld(t)
	for pi, pattern := range querygen.PaperPatterns {
		g, err := w.gen.Generate(pattern, 5)
		if err != nil {
			t.Fatal(err)
		}
		x := lang.Expand(g.Query, g.Model)
		all := collect(t, exec.New(w.sch, w.sch, exec.Config{}), x)
		if len(all) < 2 || all[0].Cost == all[len(all)-1].Cost {
			continue // needs at least two cost tiers to cut between
		}
		cheapest := all[0].Cost // keep only the cheapest tier
		want := 0
		for want < len(all) && all[want].Cost <= cheapest {
			want++
		}
		for _, c := range []struct {
			name  string
			bound func() cost.Cost
		}{
			{"constant", func() cost.Cost { return cheapest }},
			{"tightening", tightening(cheapest)},
		} {
			var m exec.Metrics
			got := collect(t, exec.New(w.sch, w.sch, exec.Config{
				Metrics: &m,
				Bound:   c.bound,
			}), x)
			name := fmt.Sprintf("pattern%d/%s", pi+1, c.name)
			if len(got) != want {
				t.Fatalf("%s: bounded run emitted %d items, want %d", name, len(got), want)
			}
			for i := range got {
				if got[i].Root != all[i].Root || got[i].Cost != all[i].Cost {
					t.Fatalf("%s: item %d: bounded (%d, %d), unbounded (%d, %d)",
						name, i, got[i].Root, got[i].Cost, all[i].Root, all[i].Cost)
				}
			}
			if m.BoundSkipped == 0 {
				t.Errorf("%s: no queries reported skipped by the bound", name)
			}
			if m.BoundStops != 1 {
				t.Errorf("%s: BoundStops = %d, want 1", name, m.BoundStops)
			}
		}
	}
}

// tightening returns a bound that is unknown (cost.Inf) on its first call
// and c on every later one: monotone non-increasing, as Config.Bound
// requires.
func tightening(c cost.Cost) func() cost.Cost {
	calls := 0
	return func() cost.Cost {
		calls++
		if calls == 1 {
			return cost.Inf
		}
		return c
	}
}

// TestBudgetStopsRun: the charge (pulled plus postings scanned) is checked
// before every execution, so budget 1 lets exactly the first second-level
// query run and stops the second with ErrBudget; a budget the run never
// reaches changes nothing.
func TestBudgetStopsRun(t *testing.T) {
	w := getWorld(t)
	g, err := w.gen.Generate(querygen.PaperPatterns[1], 5)
	if err != nil {
		t.Fatal(err)
	}
	x := lang.Expand(g.Query, g.Model)
	var free exec.Metrics
	want := collect(t, exec.New(w.sch, w.sch, exec.Config{Metrics: &free}), x)
	if free.Executed < 2 {
		t.Fatalf("the query executes %d second-level queries, want >= 2", free.Executed)
	}

	var m exec.Metrics
	var got []exec.Item
	err = exec.New(w.sch, w.sch, exec.Config{Metrics: &m, Budget: 1}).Run(context.Background(), x, func(it exec.Item) bool {
		got = append(got, it)
		return true
	})
	if !errors.Is(err, exec.ErrBudget) {
		t.Fatalf("budget 1: err = %v, want ErrBudget", err)
	}
	if m.Executed != 1 || !slices.EqualFunc(got, want[:len(got)], sameItem) {
		t.Errorf("budget 1: executed %d, emitted %d items, want 1 execution and a prefix of %d", m.Executed, len(got), len(want))
	}

	var roomy exec.Metrics
	budget := free.Planned + free.PostingsScanned
	again := collect(t, exec.New(w.sch, w.sch, exec.Config{Metrics: &roomy, Budget: budget}), x)
	if !slices.EqualFunc(again, want, sameItem) || roomy.Executed != free.Executed {
		t.Errorf("budget %d: %d items after %d executions, want %d after %d",
			budget, len(again), roomy.Executed, len(want), free.Executed)
	}
}

func sameItem(a, b exec.Item) bool { return a.Root == b.Root && a.Cost == b.Cost }

// TestDirectCountsAncestorsVisited: Direct copies the joins' ancestor
// count into the metrics, and the count of one query repeats exactly.
func TestDirectCountsAncestorsVisited(t *testing.T) {
	w := getWorld(t)
	g, err := w.gen.Generate(querygen.PaperPatterns[1], 5)
	if err != nil {
		t.Fatal(err)
	}
	x := lang.Expand(g.Query, g.Model)
	var counts [2]int
	for i := range counts {
		var m exec.Metrics
		if _, err := exec.Direct(context.Background(), w.tree, index.Build(w.tree), x, 0, &m); err != nil {
			t.Fatal(err)
		}
		counts[i] = m.EvalAncestorsVisited
	}
	if counts[0] == 0 || counts[0] != counts[1] {
		t.Errorf("ancestors visited = %v over two runs, want one positive count twice", counts)
	}
}
