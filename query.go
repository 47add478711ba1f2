package approxql

import (
	"context"
	"fmt"
	"time"

	"approxql/internal/corpus"
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
	// Auto lets the planner pick, per query and (for a corpus) per
	// shard: Direct when all results are wanted (n <= 0); otherwise
	// SchemaDriven under a budget of the direct algorithm's price, priced
	// by count-only index probes, switching to Direct if the run spends
	// the budget — a ski-rental switch across the paper's Figure 7
	// crossover. See internal/plan and docs/PLANNER.md.
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
// evaluation: parse/expand/plan/exec time, second-level queries pulled
// vs. deduped vs. executed (and how many of those were empty), index fetch
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

func queryOptions(opts []QueryOption) queryConfig {
	var c queryConfig
	for _, o := range opts {
		o(&c)
	}
	if c.model == nil {
		c.model = cost.NewModel()
	}
	return c
}

// corpusConfig translates the query options into the corpus engine's
// configuration under the given strategy. Auto defers the strategy to the
// per-shard planner.
func (c queryConfig) corpusConfig(strategy Strategy) corpus.Config {
	return corpus.Config{
		Direct:      strategy == Direct,
		Auto:        strategy == Auto,
		Parallelism: c.parallel,
		Metrics:     c.metrics,
	}
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

// PlanDecision reports how Auto starts one query: Direct when all results
// are wanted, otherwise SchemaDriven under a budget of the direct
// algorithm's price (a run that spends it switches to Direct). For a
// corpus the planner starts each shard, every one the same way, and Price
// sums the per-shard prices.
type PlanDecision struct {
	// Strategy is the planner's starting pick: Direct or SchemaDriven.
	Strategy Strategy
	// Price is the direct algorithm's price, the summed posting counts of
	// the query's labels and renamings; zero for a Direct start.
	Price int
	// Probes counts the count-only index probes that priced it.
	Probes int
}

// Plan runs only the planner for a query: the strategy Auto would start
// with and its price, without executing anything beyond count-only index
// probes. It is the introspection surface behind axql -explain and the
// server's planner fields.
func (db *Database) Plan(query string, n int, opts ...QueryOption) (PlanDecision, error) {
	return planQuery(db.c, query, n, opts)
}

// planQuery is Plan over a corpus: the shards' shared pick and their
// summed prices.
func planQuery(c *corpus.Corpus, query string, n int, opts []QueryOption) (PlanDecision, error) {
	qc := queryOptions(opts)
	x, err := parseExpand(query, &qc)
	if err != nil {
		return PlanDecision{}, err
	}
	s := c.Plan(x, n)
	out := PlanDecision{Strategy: Direct, Price: s.Price, Probes: s.Probes}
	if s.Strategy == plan.SchemaDriven {
		out.Strategy = SchemaDriven
	}
	return out, nil
}

// Search returns the best n results for an approXQL query, ranked by
// ascending transformation cost, ties by ascending root. n <= 0 returns
// all approximate results. Every strategy returns the same results.
func (db *Database) Search(query string, n int, opts ...QueryOption) ([]Result, error) {
	return db.SearchContext(context.Background(), query, n, opts...)
}

// SearchContext is Search with cancellation: planning and secondary
// execution check the context between steps, so a cancelled or
// deadline-bounded context stops the evaluation with ctx.Err().
func (db *Database) SearchContext(ctx context.Context, query string, n int, opts ...QueryOption) ([]Result, error) {
	return search(ctx, db.c, query, n, nil, opts, hitResult)
}

// search runs one search over a corpus — a Database's one shard or a
// Corpus's many — under the external cost cutoff bound (nil: none; see
// corpus.Search), converting each ranked hit by conv.
func search[T any](ctx context.Context, c *corpus.Corpus, query string, n int, bound func() Cost, opts []QueryOption, conv func(corpus.Hit, *kbest.Entry) T) ([]T, error) {
	qc := queryOptions(opts)
	x, err := parseExpand(query, &qc)
	if err != nil {
		return nil, err
	}
	if s := qc.strategy; s != Auto && s != Direct && s != SchemaDriven {
		return nil, fmt.Errorf("approxql: unknown strategy %d", s)
	}
	return corpus.Search(ctx, c, x, n, bound, qc.corpusConfig(qc.strategy), conv)
}

// hitResult drops a corpus hit's document and plan: a Database's result.
func hitResult(h corpus.Hit, _ *kbest.Entry) Result { return Result{Root: h.Root, Cost: h.Cost} }

// Stream retrieves results incrementally in ascending cost order, calling
// fn for each; fn returns false to stop. Within a cost tier, results arrive
// in ascending root order. This is the "further advantage of the
// schema-based approach" of the paper's conclusion: once the second-level
// queries are generated, results are sent to the user as soon as their
// cost tier is complete. A stop ends the evaluation after the current cost
// tier.
func (db *Database) Stream(query string, fn func(Result) bool, opts ...QueryOption) error {
	return db.StreamContext(context.Background(), query, fn, opts...)
}

// StreamContext is Stream with cancellation. When fn stops the stream the
// return is nil; when the context fires first it is ctx.Err().
func (db *Database) StreamContext(ctx context.Context, query string, fn func(Result) bool, opts ...QueryOption) error {
	return stream(ctx, db.c, query, opts, func(h corpus.Hit) bool { return fn(hitResult(h, nil)) })
}

// stream runs one schema-driven stream over a corpus.
func stream(ctx context.Context, c *corpus.Corpus, query string, opts []QueryOption, fn func(corpus.Hit) bool) error {
	qc := queryOptions(opts)
	x, err := parseExpand(query, &qc)
	if err != nil {
		return err
	}
	return c.Stream(ctx, x, qc.corpusConfig(SchemaDriven), fn)
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
	opts = append(opts[:len(opts):len(opts)], WithStrategy(SchemaDriven))
	return search(ctx, db.c, query, n, nil, opts, func(h corpus.Hit, e *kbest.Entry) ExplainedResult {
		return ExplainedResult{Result: hitResult(h, e), Plan: kbest.Render(e)}
	})
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
	c := queryOptions(opts)
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

// CorpusPlan is one transformed query of an Explain, aggregated by its
// label structure: a shard's second-level queries that share labels,
// nesting, and cost are one plan, and so are those of different shards
// (shard schemas are independent, so schema-class identifiers cannot be
// compared across shards).
type CorpusPlan = corpus.Plan

// Explain returns the best k second-level queries for an approXQL query —
// the transformed queries the schema-driven strategy would execute — with
// their costs and result counts. It is the introspection tool for cost-model
// tuning. The planner's first k queries are merged by label structure, so
// fewer than k plans come back when several schema classes plan one shape.
// Result counts come from a count-only execution path: no result list is
// materialized or retained.
func (db *Database) Explain(query string, k int, opts ...QueryOption) ([]CorpusPlan, error) {
	return db.ExplainContext(context.Background(), query, k, opts...)
}

// ExplainContext is Explain with cancellation.
func (db *Database) ExplainContext(ctx context.Context, query string, k int, opts ...QueryOption) ([]CorpusPlan, error) {
	return explain(ctx, db.c, query, k, opts)
}

// explain runs one Explain over a corpus; k <= 0 asks for 10 plans.
func explain(ctx context.Context, c *corpus.Corpus, query string, k int, opts []QueryOption) ([]CorpusPlan, error) {
	qc := queryOptions(opts)
	x, err := parseExpand(query, &qc)
	if err != nil {
		return nil, err
	}
	if k <= 0 {
		k = 10
	}
	return c.Explain(ctx, x, k, qc.corpusConfig(SchemaDriven))
}
