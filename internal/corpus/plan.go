package corpus

import (
	"approxql/internal/lang"
	"approxql/internal/plan"
)

// PlanSummary aggregates the per-shard starting picks for one query
// without executing anything: the shards each strategy would start with,
// and the summed prices of the schema-driven starts.
type PlanSummary struct {
	// DirectShards and SchemaShards count the active shards starting
	// with each strategy; PrunedShards counts shards skipped up front by
	// their schema summaries.
	DirectShards int
	SchemaShards int
	PrunedShards int
	// Price sums the per-shard direct-algorithm prices (the budgets of
	// the schema-driven starts); Probes the count-only index probes.
	Price  int
	Probes int
}

// Plan runs only the planner against every active shard — the start an
// Auto search of (x, n) would make, for introspection surfaces.
func (c *Corpus) Plan(x *lang.Expanded, n int) PlanSummary {
	active, pruned := c.filterShards(x)
	s := PlanSummary{PrunedShards: pruned}
	for _, sh := range active {
		d := plan.Decide(nil, sh.be, x, n)
		s.Price += d.Price
		s.Probes += d.Probes
		if d.Strategy == plan.Direct {
			s.DirectShards++
		} else {
			s.SchemaShards++
		}
	}
	return s
}
