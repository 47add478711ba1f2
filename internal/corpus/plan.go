package corpus

import (
	"approxql/internal/backend"
	"approxql/internal/lang"
	"approxql/internal/plan"
)

// PlanSummary aggregates the per-shard planner decisions for one query
// without executing anything: the shards each strategy would get, the
// summed result-count estimate, and the largest plan space.
type PlanSummary struct {
	// DirectShards and SchemaShards count the active shards the planner
	// routes to each strategy; PrunedShards counts shards skipped up
	// front by their schema summaries.
	DirectShards int
	SchemaShards int
	PrunedShards int
	// Estimate sums the per-shard approximate-result-count estimates;
	// Probes the count-only index probes issued.
	Estimate int
	Probes   int
	// PlanSpace is the largest per-shard second-level-query bound.
	PlanSpace int
}

// Plan runs only the planner against every active shard — the decision an
// Auto search of (x, n) would make, for introspection surfaces.
func (c *Corpus) Plan(x *lang.Expanded, n int) PlanSummary {
	active, pruned := c.filterShards(x)
	s := PlanSummary{PrunedShards: pruned}
	for _, sh := range active {
		cs, _ := sh.be.(backend.CountSource)
		d := plan.Decide(sh.be.Schema(), cs, x, n)
		s.Estimate += d.Estimate
		s.Probes += d.Probes
		if d.PlanSpace > s.PlanSpace {
			s.PlanSpace = d.PlanSpace
		}
		if d.Strategy == plan.Direct {
			s.DirectShards++
		} else {
			s.SchemaShards++
		}
	}
	return s
}
