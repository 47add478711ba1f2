package approxql

import (
	"context"
	"fmt"
	"sort"
	"time"

	"approxql/internal/backend"
	"approxql/internal/cost"
	"approxql/internal/costgen"
	"approxql/internal/eval"
	"approxql/internal/exec"
	"approxql/internal/kbest"
	"approxql/internal/lang"
	"approxql/internal/plan"
)

// Strategy selects the best-n evaluation algorithm.
type Strategy int

const (
	// Auto lets the planner pick: it estimates the approximate-result
	// count from schema statistics and count-only index probes and
	// resolves to SchemaDriven when the requested n is small relative to
	// the estimate, Direct otherwise — the paper's Figure 7 crossover
	// applied per query (and, for a corpus, per shard). See
	// internal/plan and docs/PLANNER.md.
	Auto Strategy = iota
	// Direct computes all approximate results with algorithm primary
	// against the data indexes, sorts, and prunes (Section 6).
	Direct
	// SchemaDriven generates the best k second-level queries against the
	// schema and executes them incrementally (Section 7).
	SchemaDriven
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case Direct:
		return "direct"
	case SchemaDriven:
		return "schema"
	default:
		return "auto"
	}
}

// QueryMetrics records per-stage counters and timings of one schema-driven
// evaluation: parse/expand/plan/exec time, rounds and their k values,
// second-level queries planned vs. deduped vs. executed, index fetch
// counts, and results emitted. Attach one with WithMetrics.
type QueryMetrics = exec.Metrics

type queryConfig struct {
	model    *CostModel
	strategy Strategy
	parallel int
	metrics  *QueryMetrics
}

// QueryOption configures Search, Stream, Results, and Explain.
type QueryOption func(*queryConfig)

// WithCostModel supplies the transformation costs for this query. Without
// it, only insertions are allowed (exact containment semantics with
// context-specificity ranking).
func WithCostModel(m *CostModel) QueryOption {
	return func(c *queryConfig) { c.model = m }
}

// WithStrategy forces an evaluation strategy.
func WithStrategy(s Strategy) QueryOption {
	return func(c *queryConfig) { c.strategy = s }
}

// WithParallelism sets the number of shard workers of a Corpus search: how
// many shards are evaluated at once. The default (0) uses GOMAXPROCS; 1
// searches the shards one after another. Each shard, like a Database, is
// evaluated on one goroutine, so the option has no effect on Database
// queries. Results are identical at any setting.
func WithParallelism(n int) QueryOption {
	return func(c *queryConfig) { c.parallel = n }
}

// WithMetrics attaches a metrics sink filled during evaluation — the
// EXPLAIN-ANALYZE view of a query. Pass a zero QueryMetrics per query; a
// reused struct accumulates across queries.
func WithMetrics(m *QueryMetrics) QueryOption {
	return func(c *queryConfig) { c.metrics = m }
}

func (db *Database) config(opts []QueryOption) queryConfig {
	c := queryConfig{model: cost.NewModel()}
	for _, o := range opts {
		o(&c)
	}
	return c
}

// Parse checks an approXQL query without executing it and returns its
// canonical form.
func Parse(query string) (string, error) {
	q, err := lang.Parse(query)
	if err != nil {
		return "", err
	}
	return q.String(), nil
}

// parseExpand parses and expands a query, recording stage timings when a
// metrics sink is attached.
func parseExpand(query string, c *queryConfig) (*lang.Expanded, error) {
	t0 := time.Now()
	q, err := lang.Parse(query)
	if err != nil {
		return nil, err
	}
	if c.metrics != nil {
		c.metrics.ParseTime += time.Since(t0)
	}
	t0 = time.Now()
	x := lang.Expand(q, c.model)
	if c.metrics != nil {
		c.metrics.ExpandTime += time.Since(t0)
	}
	return x, nil
}

// engine builds the incremental execution engine for one query — the single
// execution path of the schema-driven strategy. The engine plans against
// the schema and executes against the database's backend, so the same loop
// runs over in-memory and stored I_sec postings. initialK is the engine's
// first k; zero keeps the engine's default for n.
func (db *Database) engine(c queryConfig, n, initialK int) *exec.Engine {
	return exec.New(db.Schema(), db.be, exec.Config{
		N:        n,
		InitialK: initialK,
		Metrics:  c.metrics,
	})
}

// resolveAuto runs the planner for one query and records the decision in
// the attached metrics.
func (db *Database) resolveAuto(c *queryConfig, x *lang.Expanded, n int) Strategy {
	cs, _ := db.be.(backend.CountSource)
	d := plan.Decide(db.Schema(), cs, x, n)
	if c.metrics != nil {
		c.metrics.PlannerStrategy = d.Strategy.String()
		c.metrics.PlannerEstimate = d.Estimate
		c.metrics.PlannerProbes = d.Probes
	}
	if d.Strategy == plan.Direct {
		if c.metrics != nil {
			c.metrics.PlannerDirect++
		}
		return Direct
	}
	if c.metrics != nil {
		c.metrics.PlannerSchema++
	}
	return SchemaDriven
}

// PlanDecision reports how the planner resolves Auto for one query: the
// strategy it picks and the approximate-result-count estimate R̂ that drove
// the choice. For a corpus the planner decides per shard;
// DirectShards/SchemaShards give the split, Estimate sums the per-shard
// estimates, and Strategy is the majority pick.
type PlanDecision struct {
	// Strategy is the planner's pick: Direct or SchemaDriven.
	Strategy Strategy
	// Estimate is R̂, the planner's upper-bound estimate of the
	// approximate-result count.
	Estimate int
	// PlanSpace bounds the number of distinct second-level queries the
	// schema can generate for this query (the k termination bound).
	PlanSpace int
	// Probes counts the count-only index probes the estimate issued.
	Probes int
	// DirectShards and SchemaShards count the shards routed to each
	// strategy (1/0 or 0/1 for a single database).
	DirectShards int
	SchemaShards int
}

// Plan runs only the planner for a query: the strategy Auto would resolve
// to, without executing anything beyond count-only index probes. It is the
// introspection surface behind axql -explain and the server's planner
// fields.
func (db *Database) Plan(query string, n int, opts ...QueryOption) (PlanDecision, error) {
	c := db.config(opts)
	x, err := parseExpand(query, &c)
	if err != nil {
		return PlanDecision{}, err
	}
	cs, _ := db.be.(backend.CountSource)
	d := plan.Decide(db.Schema(), cs, x, n)
	out := PlanDecision{
		Estimate:  d.Estimate,
		PlanSpace: d.PlanSpace,
		Probes:    d.Probes,
	}
	if d.Strategy == plan.Direct {
		out.Strategy = Direct
		out.DirectShards = 1
	} else {
		out.Strategy = SchemaDriven
		out.SchemaShards = 1
	}
	return out, nil
}

// Search returns the best n results for an approXQL query, ranked by
// ascending transformation cost. n <= 0 returns all approximate results.
func (db *Database) Search(query string, n int, opts ...QueryOption) ([]Result, error) {
	return db.SearchContext(context.Background(), query, n, opts...)
}

// SearchContext is Search with cancellation: planning and secondary
// execution check the context between steps, so a cancelled or
// deadline-bounded context stops the evaluation with ctx.Err().
func (db *Database) SearchContext(ctx context.Context, query string, n int, opts ...QueryOption) ([]Result, error) {
	c := db.config(opts)
	x, err := parseExpand(query, &c)
	if err != nil {
		return nil, err
	}
	strategy := c.strategy
	if strategy == Auto {
		strategy = db.resolveAuto(&c, x, n)
	}
	switch strategy {
	case Direct:
		return exec.Direct(ctx, db.be.Tree(), db.be, x, n, c.metrics)
	case SchemaDriven:
		var results []Result
		err := db.engine(c, n, 0).Run(ctx, x, func(it exec.Item) bool {
			results = append(results, Result{Root: it.Root, Cost: it.Cost})
			return true
		})
		if err != nil {
			return nil, err
		}
		// Results arrive in ascending cost order; sort ties by preorder
		// for deterministic output and truncate to n.
		sort.SliceStable(results, func(i, j int) bool {
			if results[i].Cost != results[j].Cost {
				return results[i].Cost < results[j].Cost
			}
			return results[i].Root < results[j].Root
		})
		if n > 0 && n < len(results) {
			results = results[:n]
		}
		return results, nil
	}
	return nil, fmt.Errorf("approxql: unknown strategy %d", strategy)
}

// streamInitialK is the first k of Stream and Results: with no n to guess
// from, they start small so the first results arrive early.
const streamInitialK = 8

// Stream retrieves results incrementally in ascending cost order, calling
// fn for each; fn returns false to stop. This is the "further advantage of
// the schema-based approach" of the paper's conclusion: once the second-
// level queries are generated, results are sent to the user as soon as each
// second-level query completes.
func (db *Database) Stream(query string, fn func(Result) bool, opts ...QueryOption) error {
	return db.StreamContext(context.Background(), query, fn, opts...)
}

// StreamContext is Stream with cancellation. When fn stops the stream the
// return is nil; when the context fires first it is ctx.Err().
func (db *Database) StreamContext(ctx context.Context, query string, fn func(Result) bool, opts ...QueryOption) error {
	c := db.config(opts)
	x, err := parseExpand(query, &c)
	if err != nil {
		return err
	}
	return db.engine(c, 0, streamInitialK).Run(ctx, x, func(it exec.Item) bool {
		return fn(Result{Root: it.Root, Cost: it.Cost})
	})
}

// ExplainedResult is a result together with the second-level query that
// retrieved it: the transformed query whose exact embedding the result is.
type ExplainedResult struct {
	Result
	// Plan renders the retrieving second-level query, e.g.
	// "cd@4[title@5[#text@6=concerto]]".
	Plan string
}

// SearchExplained is Search restricted to the schema-driven strategy,
// additionally reporting for each result the transformed query that found
// it — the explanation of *why* a result matched and what it cost.
func (db *Database) SearchExplained(query string, n int, opts ...QueryOption) ([]ExplainedResult, error) {
	return db.SearchExplainedContext(context.Background(), query, n, opts...)
}

// SearchExplainedContext is SearchExplained with cancellation.
func (db *Database) SearchExplainedContext(ctx context.Context, query string, n int, opts ...QueryOption) ([]ExplainedResult, error) {
	c := db.config(opts)
	x, err := parseExpand(query, &c)
	if err != nil {
		return nil, err
	}
	var out []ExplainedResult
	err = db.engine(c, n, 0).Run(ctx, x, func(it exec.Item) bool {
		out = append(out, ExplainedResult{
			Result: Result{Root: it.Root, Cost: it.Cost},
			Plan:   kbest.Render(it.Plan),
		})
		return n <= 0 || len(out) < n
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// MatchStep reports the fate of one query selector in the cheapest
// embedding of a query at a particular result (see MatchDetails).
type MatchStep struct {
	// QueryLabel is the selector's original label.
	QueryLabel string
	// Kind distinguishes name selectors from text selectors.
	Kind Kind
	// Action is "matched", "renamed", or "deleted".
	Action string
	// MatchedLabel is the data-side label (differs from QueryLabel when
	// the selector was renamed; empty when deleted).
	MatchedLabel string
	// Node is the matched data node (undefined when deleted).
	Node NodeID
}

// MatchDetails explains one result: it reconstructs the cheapest valid
// embedding of the query at the given result root and reports, selector by
// selector, whether it matched directly, matched under a renaming, or was
// deleted — the information a UI needs for highlighting. The root must be a
// result of the same query and cost model (as returned by Search).
func (db *Database) MatchDetails(query string, root NodeID, opts ...QueryOption) ([]MatchStep, Cost, error) {
	c := db.config(opts)
	q, err := lang.Parse(query)
	if err != nil {
		return nil, 0, err
	}
	assigns, total, err := eval.Explain(db.be.Tree(), q, c.model, root)
	if err != nil {
		return nil, 0, err
	}
	out := make([]MatchStep, len(assigns))
	for i, a := range assigns {
		out[i] = MatchStep{
			QueryLabel:   a.Query.Label,
			Kind:         a.Query.Kind,
			Action:       a.Action.String(),
			MatchedLabel: a.Label,
			Node:         a.Node,
		}
		if a.Action == eval.Deleted {
			out[i].MatchedLabel = ""
		}
	}
	return out, total, nil
}

// SuggestOptions tune SuggestCostModel; the zero value uses the defaults of
// the derivation heuristics (5 renamings per label, costs in [1, 9]).
type SuggestOptions = costgen.Options

// SuggestCostModel derives a transformation cost model for the given query
// from the collection's structure: renaming candidates come from element
// names and terms used in similar contexts (measured on the schema), and
// delete costs reflect how much structure a name carries. This implements
// the paper's future-work item on domain-specific cost rules; treat the
// result as a starting point and inspect it with Explain.
func (db *Database) SuggestCostModel(query string, opt SuggestOptions) (*CostModel, error) {
	q, err := lang.Parse(query)
	if err != nil {
		return nil, err
	}
	a := costgen.NewAnalyzer(db.Schema(), opt)
	labels := make([]costgen.Label, 0, 8)
	for _, l := range q.Labels() {
		labels = append(labels, costgen.Label{Name: l.Name, Kind: l.Kind})
	}
	return a.ModelFor(labels), nil
}

// SecondLevelQuery describes one transformed query produced by the
// schema-driven planner, for Explain.
type SecondLevelQuery struct {
	// Rendered is a compact textual form, e.g. "cd@3[title@5[#text@6]]".
	Rendered string
	// Cost is the embedding cost every result of this query receives.
	Cost Cost
	// Results is the number of data subtrees the query retrieves.
	Results int
}

// Explain returns the best k second-level queries for an approXQL query —
// the transformed queries the schema-driven strategy would execute — with
// their costs and result counts. It is the introspection tool for cost-model
// tuning. Result counts come from a count-only execution path: no result
// list is materialized or retained.
func (db *Database) Explain(query string, k int, opts ...QueryOption) ([]SecondLevelQuery, error) {
	return db.ExplainContext(context.Background(), query, k, opts...)
}

// ExplainContext is Explain with cancellation.
func (db *Database) ExplainContext(ctx context.Context, query string, k int, opts ...QueryOption) ([]SecondLevelQuery, error) {
	c := db.config(opts)
	x, err := parseExpand(query, &c)
	if err != nil {
		return nil, err
	}
	if k <= 0 {
		k = 10
	}
	plans, err := db.engine(c, 0, 0).Explain(ctx, x, k)
	if err != nil {
		return nil, err
	}
	out := make([]SecondLevelQuery, len(plans))
	for i, p := range plans {
		out[i] = SecondLevelQuery{
			Rendered: kbest.Render(p.Entry),
			Cost:     p.Entry.Cost,
			Results:  p.Results,
		}
	}
	return out, nil
}
