// Package plan is the query planner: it resolves the Auto strategy into the
// paper's direct algorithm (Section 6) or the schema-driven incremental
// engine (Section 7) per (query, shard).
//
// The paper's Figure 7 puts the crossover between the two at an n that
// depends on the data, the query, and the cost model, so Auto does not
// predict it: it runs a ski-rental switch (Karlin, Manasse, Rudolph &
// Sleator, 1988). The direct algorithm reads every posting of every label
// and renaming of the expanded query, and count-only index probes
// (backend.CountSource — O(log n) header reads on counter-format stores)
// give that number up front: Price. A shard asked for all results
// (n <= 0) runs Direct at once, the right end of Figure 7. Every other
// shard rents: it starts schema-driven under a budget of the price
// (exec.Config.Budget), charged one unit per second-level query pulled
// and per instance posting scanned. A run that passes the budget discards
// its hits and buys: it runs Direct. A shard therefore never spends more
// than the price twice over, plus Direct's own work when it switches — the
// deterministic ski-rental bound, 2-competitive in units of the charge —
// and no constant is fitted to a collection. The switch itself lives in
// internal/corpus, which all Auto paths share.
package plan

import (
	"approxql/internal/backend"
	"approxql/internal/cost"
	"approxql/internal/lang"
	"approxql/internal/schema"
)

// Strategy is the planner's pick, mirroring the facade's forced strategies.
type Strategy int

const (
	// Direct computes all approximate results and prunes.
	Direct Strategy = iota
	// SchemaDriven generates second-level queries incrementally.
	SchemaDriven
)

// String names the strategy with the facade's spelling.
func (s Strategy) String() string {
	if s == SchemaDriven {
		return "schema"
	}
	return "direct"
}

// Decision is the planner's starting pick for one query on one shard.
type Decision struct {
	Strategy Strategy
	// Price is the direct algorithm's price, the budget of a
	// schema-driven start (see Price); zero for a direct start.
	Price int
	// Probes counts the count-only index probes that priced it.
	Probes int
}

// Decide returns the starting pick for x and the requested result count n:
// Direct when n <= 0 (all results wanted), otherwise SchemaDriven with the
// direct algorithm's price as its budget. The schema argument is unused;
// the pick needs only the counts.
func Decide(_ *schema.Schema, counts backend.CountSource, x *lang.Expanded, n int) Decision {
	if n <= 0 {
		return Decision{Strategy: Direct}
	}
	price, probes := Price(counts, x)
	return Decision{Strategy: SchemaDriven, Price: price, Probes: probes}
}

// Price returns the price of answering x with the direct algorithm — the
// summed posting counts of every selector label and renaming of the
// expanded query, each one posting list the algorithm reads — and the
// number of count probes issued. A failed probe counts zero postings.
func Price(counts backend.CountSource, x *lang.Expanded) (price, probes int) {
	for _, u := range x.Nodes {
		if u.Rep != lang.RepNode && u.Rep != lang.RepLeaf {
			continue
		}
		price += count(counts, u.Label, u.Kind)
		for _, r := range u.Renamings {
			price += count(counts, r.To, u.Kind)
		}
		probes += 1 + len(u.Renamings)
	}
	return price, probes
}

// count is one count-only probe.
func count(counts backend.CountSource, label string, kind cost.Kind) int {
	var n int
	var err error
	if kind == cost.Text {
		n, err = counts.TextCount(label)
	} else {
		n, err = counts.StructCount(label)
	}
	if err != nil {
		return 0
	}
	return n
}
