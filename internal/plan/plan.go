// Package plan is the query planner: it resolves the Auto strategy into a
// concrete evaluation strategy — the paper's direct algorithm (Section 6) or
// the schema-driven incremental engine (Section 7) — per (query, schema,
// backend). The schema-driven engine's k/δ schedule is the engine's own
// (internal/exec); the planner does not set it.
//
// The decision follows the crossover of the paper's Figure 7: the
// schema-driven strategy wins when the requested result count n is small
// relative to the number of approximate results, and the direct algorithm
// wins as n approaches that count. The planner therefore estimates the
// approximate-result count R̂ from schema statistics and cheap count-only
// index probes (backend.CountSource — O(log n) header reads on
// counter-format stores), then picks Direct when n is zero (all results
// wanted), when n is within half of R̂, or when the expected number of
// second-level queries before n results surface (n·PlanSpace/R̂) reaches R̂
// itself — the plan space outgrowing the data is the regime where the
// incremental engine enumerates low-yield queries; SchemaDriven otherwise.
package plan

import (
	"approxql/internal/backend"
	"approxql/internal/cost"
	"approxql/internal/kbest"
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

// Decision is the planner's resolution of Auto for one query: the chosen
// strategy and the estimate that drove the choice.
type Decision struct {
	Strategy Strategy
	// Estimate is R̂, the planner's upper-bound estimate of the
	// approximate-result count (see Estimate).
	Estimate int
	// PlanSpace is kbest.PlanBound(sch, x): the maximum number of
	// distinct second-level queries the plan can generate.
	PlanSpace int
	// Probes counts the count-only index probes the estimate issued.
	Probes int
}

// Decide resolves Auto for one query: x is the expanded query, n the
// requested result count (<= 0 means all results), counts the backend's
// count-only capability (nil falls back to schema instance lists). The
// returned decision is deterministic for fixed (sch, counts, x, n).
func Decide(sch *schema.Schema, counts backend.CountSource, x *lang.Expanded, n int) Decision {
	d := Decision{Strategy: Direct}
	d.Estimate, d.Probes = Estimate(sch, counts, x)
	d.PlanSpace = kbest.PlanBound(sch, x)
	if n <= 0 {
		// All results wanted: the schema-driven engine would have to
		// enumerate the full closure; the direct algorithm computes the
		// same set in one pass (the right end of Figure 7).
		return d
	}
	if 2*n >= d.Estimate {
		// n within half of the estimated result count: the incremental
		// engine would grow k until it reproduced most of the direct
		// algorithm's work, paying the planning overhead on top.
		return d
	}
	// Expected second-level queries before n results surface, if the R̂
	// estimated results spread evenly over the plan space.
	scaled := (n*d.PlanSpace + d.Estimate - 1) / d.Estimate
	if scaled >= d.Estimate {
		// The incremental engine would likely enumerate more second-level
		// queries than there are candidate data nodes for the direct
		// algorithm to scan — renaming-heavy cost models and deep patterns
		// inflate the plan space far past the data, and each extra
		// second-level query retrieves (near) nothing. Direct wins even at
		// small n.
		return d
	}
	d.Strategy = SchemaDriven
	return d
}

// Estimate returns R̂, an estimate of the query's approximate-result count,
// and the number of count probes issued. Every approximate result embeds
// each *required* query node — a node on every conjunctive path from the
// root, with deletion forbidden — into a data node carrying its label or one
// of its renamings. The number of such data nodes therefore estimates the
// result count from above for flat corpora (deeply self-nested data can
// exceed it), and the minimum over all required nodes is the tightest such
// figure; the root term reproduces the engine's root-result bound.
//
// With a CountSource each label figure is one count-only probe (O(log n) on
// counter-format stores); without one it falls back to the schema's
// in-memory instance lists.
func Estimate(sch *schema.Schema, counts backend.CountSource, x *lang.Expanded) (int, int) {
	est := -1
	probes := 0
	for _, u := range requiredNodes(x) {
		m := labelCount(sch, counts, u.Label, u.Kind, &probes)
		for _, r := range u.Renamings {
			m += labelCount(sch, counts, r.To, u.Kind, &probes)
		}
		if est < 0 || m < est {
			est = m
		}
	}
	if est < 0 {
		est = 0
	}
	return est, probes
}

// requiredNodes collects the selector nodes every embedding must map: nodes
// reachable from the root through RepNode content and RepAnd edges only.
// Descendants of a RepOr are optional — whether it is a user-written "or"
// (either branch suffices) or a deletion bridge (the node below may be
// deleted) — and a RepLeaf with a finite delete cost may be dropped without
// any bridge.
func requiredNodes(x *lang.Expanded) []*lang.XNode {
	var out []*lang.XNode
	var walk func(u *lang.XNode)
	walk = func(u *lang.XNode) {
		if u == nil {
			return
		}
		switch u.Rep {
		case lang.RepNode:
			out = append(out, u)
			walk(u.Child)
		case lang.RepLeaf:
			if cost.IsInf(u.DelCost) {
				out = append(out, u)
			}
		case lang.RepAnd:
			walk(u.Left)
			walk(u.Right)
		case lang.RepOr:
			// Optional subtree: contributes no required nodes.
		}
	}
	walk(x.Root)
	return out
}

// labelCount returns the number of data nodes carrying label, preferring a
// count-only index probe and falling back to the schema's instance lists.
func labelCount(sch *schema.Schema, counts backend.CountSource, label string, kind cost.Kind, probes *int) int {
	if counts != nil {
		*probes++
		if kind == cost.Text {
			if n, err := counts.TextCount(label); err == nil {
				return n
			}
		} else {
			if n, err := counts.StructCount(label); err == nil {
				return n
			}
		}
	}
	total := 0
	if kind == cost.Text {
		for _, c := range sch.TextClasses(label) {
			total += len(sch.TermInstances(c, label))
		}
	} else {
		for _, c := range sch.StructClasses(label) {
			total += len(sch.Instances(c))
		}
	}
	return total
}
