package corpus

import (
	"approxql/internal/lang"
	"approxql/internal/plan"
)

// PlanSummary aggregates the per-shard starting picks for one query
// without executing anything.
type PlanSummary struct {
	// Strategy is the starting pick, which every active shard shares
	// because it depends on n alone; Direct when no shard is active.
	Strategy plan.Strategy
	// Price sums the per-shard direct-algorithm prices (the budgets of
	// the schema-driven starts); Probes the count-only index probes.
	Price  int
	Probes int
}

// Plan runs only the planner against every active shard — the start an
// Auto search of (x, n) would make, for introspection surfaces.
func (c *Corpus) Plan(x *lang.Expanded, n int) PlanSummary {
	active, _ := c.filterShards(x)
	var s PlanSummary
	for _, sh := range active {
		d := plan.Decide(nil, sh.be, x, n)
		s.Strategy = d.Strategy
		s.Price += d.Price
		s.Probes += d.Probes
	}
	return s
}
