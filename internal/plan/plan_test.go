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

func TestDecideCrossover(t *testing.T) {
	_, sch, be := buildWorld(t)
	x := expand(t, `cd[title]`, nil)

	// All results wanted: always direct, whatever the estimate says.
	if d := plan.Decide(sch, be, x, 0); d.Strategy != plan.Direct {
		t.Errorf("n=0: strategy = %v, want direct", d.Strategy)
	}
	// Small n against ~40 estimated results: schema-driven.
	d := plan.Decide(sch, be, x, 3)
	if d.Strategy != plan.SchemaDriven {
		t.Errorf("n=3: strategy = %v (estimate %d), want schema", d.Strategy, d.Estimate)
	}
	if d.Estimate != 40 {
		t.Errorf("n=3: estimate = %d, want 40 (the cd count)", d.Estimate)
	}
	// n within half the estimate: direct.
	if d := plan.Decide(sch, be, x, 20); d.Strategy != plan.Direct {
		t.Errorf("n=20: strategy = %v (estimate %d), want direct", d.Strategy, d.Estimate)
	}
	if d := plan.Decide(sch, be, x, 1000); d.Strategy != plan.Direct {
		t.Errorf("n=1000: strategy = %v, want direct", d.Strategy)
	}
}

// TestDecideSchedule: a schema-driven decision reports the plan space the
// engine's k schedule is bounded by; the schedule itself is the engine's.
func TestDecideSchedule(t *testing.T) {
	_, sch, be := buildWorld(t)
	x := expand(t, `cd[title]`, nil)
	d := plan.Decide(sch, be, x, 3)
	if d.Strategy != plan.SchemaDriven {
		t.Fatalf("strategy = %v, want schema", d.Strategy)
	}
	if d.PlanSpace <= 0 {
		t.Errorf("PlanSpace = %d, want > 0", d.PlanSpace)
	}
}

func TestEstimateTakesRarestRequiredNode(t *testing.T) {
	_, sch, be := buildWorld(t)

	// "concerto" occurs in 12 titles: rarer than cd (40) and title (46).
	est, probes := plan.Estimate(sch, be, expand(t, `cd[title["concerto"]]`, nil))
	if est != 12 {
		t.Errorf("estimate = %d, want 12 (the concerto count)", est)
	}
	if probes == 0 {
		t.Error("no count probes issued despite a CountSource")
	}

	// An absent label drives the estimate to zero.
	if est, _ := plan.Estimate(sch, be, expand(t, `cd[isbn]`, nil)); est != 0 {
		t.Errorf("estimate = %d for a query with an absent required label, want 0", est)
	}
}

func TestEstimateSkipsOptionalNodes(t *testing.T) {
	_, sch, be := buildWorld(t)

	// Under "or" neither term is required: the estimate falls back to the
	// cd/title counts, not min(concerto, sonata).
	est, _ := plan.Estimate(sch, be, expand(t, `cd[title["concerto" or "zzz"]]`, nil))
	if est != 40 {
		t.Errorf("or-query estimate = %d, want 40 (or-branches must not count)", est)
	}

	// A deletable leaf is not required either.
	model := cost.NewModel()
	model.SetDelete("isbn", cost.Struct, 2)
	est, _ = plan.Estimate(sch, be, expand(t, `cd[isbn]`, model))
	if est != 40 {
		t.Errorf("deletable-leaf estimate = %d, want 40", est)
	}

	// A renaming widens a required node's count instead of zeroing it.
	model = cost.NewModel()
	model.AddRenaming("dvd", "cd", cost.Struct, 1)
	est, _ = plan.Estimate(sch, be, expand(t, `dvd[title]`, model))
	if est != 40 {
		t.Errorf("renamed-root estimate = %d, want 40 (cd via renaming)", est)
	}
}

func TestEstimateSchemaFallback(t *testing.T) {
	_, sch, be := buildWorld(t)
	for _, query := range []string{
		`cd[title]`,
		`cd[title["concerto"]]`,
		`catalog[cd and mc]`,
		`cd[title["concerto" or "sonata"]]`,
	} {
		x := expand(t, query, nil)
		withCounts, probes := plan.Estimate(sch, be, x)
		fallback, noProbes := plan.Estimate(sch, nil, x)
		if withCounts != fallback {
			t.Errorf("%s: CountSource estimate %d != schema fallback %d", query, withCounts, fallback)
		}
		if probes == 0 || noProbes != 0 {
			t.Errorf("%s: probes = %d with counts, %d without", query, probes, noProbes)
		}
	}
}
