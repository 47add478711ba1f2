package approxql

import (
	"context"
	"errors"
	"reflect"
	"testing"
)

func TestResultsIteratorMatchesSearch(t *testing.T) {
	db := buildDB(t)
	model := PaperCostModel()
	query := `cd[title["concerto"]]`

	want, err := db.Search(query, 0, WithCostModel(model), WithStrategy(SchemaDriven))
	if err != nil {
		t.Fatal(err)
	}
	var got []Result
	for r, err := range db.Results(query, WithCostModel(model), WithStrategy(SchemaDriven)) {
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, r)
	}
	// Search sorts its top-n window by (cost, root); the iterator emits in
	// engine order, ascending in cost. The sets must agree.
	byCost := func(rs []Result) map[Result]bool {
		m := make(map[Result]bool, len(rs))
		for _, r := range rs {
			m[r] = true
		}
		return m
	}
	if !reflect.DeepEqual(byCost(got), byCost(want)) {
		t.Fatalf("iterator results %v, Search results %v", got, want)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Cost < got[i-1].Cost {
			t.Fatalf("iterator emitted out of cost order: %v", got)
		}
	}
}

func TestResultsIteratorBreakEarly(t *testing.T) {
	db := buildDB(t)
	seen := 0
	for _, err := range db.Results(`cd[title["concerto"]]`, WithCostModel(PaperCostModel())) {
		if err != nil {
			t.Fatal(err)
		}
		seen++
		break
	}
	if seen != 1 {
		t.Fatalf("saw %d results after break", seen)
	}
}

func TestResultsIteratorYieldsParseError(t *testing.T) {
	db := buildDB(t)
	var last error
	n := 0
	for _, err := range db.Results(`cd[[[`) {
		n++
		last = err
	}
	if n != 1 || last == nil {
		t.Fatalf("malformed query yielded %d pairs, final err %v", n, last)
	}
}

func TestResultsIteratorYieldsContextError(t *testing.T) {
	db := buildDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var last error
	for _, err := range db.ResultsContext(ctx, `cd[title["concerto"]]`, WithCostModel(PaperCostModel())) {
		last = err
	}
	if !errors.Is(last, context.Canceled) {
		t.Fatalf("final error = %v, want context.Canceled", last)
	}
}

func TestSearchContextCancelled(t *testing.T) {
	db := buildDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, strategy := range []Strategy{Direct, SchemaDriven} {
		_, err := db.SearchContext(ctx, `cd[title["concerto"]]`, 0,
			WithCostModel(PaperCostModel()), WithStrategy(strategy))
		if !errors.Is(err, context.Canceled) {
			t.Errorf("strategy %v: err = %v, want context.Canceled", strategy, err)
		}
	}
}

func TestStreamParallelEarlyStop(t *testing.T) {
	db := buildDB(t)
	model := PaperCostModel()
	var all []Result
	err := db.Stream(`cd[title["concerto" or "sonata"]]`, func(r Result) bool {
		all = append(all, r)
		return true
	}, WithCostModel(model))
	if err != nil {
		t.Fatal(err)
	}
	if len(all) < 2 {
		t.Skipf("workload too small: %d results", len(all))
	}
	var got []Result
	err = db.Stream(`cd[title["concerto" or "sonata"]]`, func(r Result) bool {
		got = append(got, r)
		return len(got) < 2
	}, WithCostModel(model))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("callback saw %d results after stopping at 2", len(got))
	}
	if !reflect.DeepEqual(got, all[:2]) {
		t.Fatalf("early-stopped prefix %v, full run prefix %v", got, all[:2])
	}
}

func TestSearchParallelMetricsPopulated(t *testing.T) {
	db := buildDB(t)
	var m QueryMetrics
	res, err := db.Search(`cd[title["concerto"]]`, 0,
		WithCostModel(PaperCostModel()), WithStrategy(SchemaDriven),
		WithMetrics(&m))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no results")
	}
	if m.Rounds == 0 || m.Executed == 0 || m.ResultsEmitted == 0 {
		t.Fatalf("metrics not populated: %+v", m)
	}
	if m.ParseTime <= 0 || m.PlanTime <= 0 {
		t.Fatalf("stage timings not recorded: parse %v plan %v", m.ParseTime, m.PlanTime)
	}
}
