// Package approxql is an approximate tree-pattern search engine for XML,
// implementing Torsten Schlieder's "Schema-Driven Evaluation of Approximate
// Tree-Pattern Queries" (EDBT 2002).
//
// Queries are simple hierarchical patterns with Boolean operators:
//
//	cd[title["piano" and "concerto"] and composer["rachmaninov"]]
//
// Results that do not match exactly are still retrieved and ranked: the
// engine considers cost-weighted query transformations — inserting nodes
// (searching in more specific contexts), deleting inner nodes (searching in
// more general contexts), deleting leaves (coordination-level match), and
// renaming labels — and scores every result by the total cost of the
// cheapest transformation sequence that makes the query match it exactly.
//
// Two best-n evaluation strategies are provided, mirroring the paper:
//
//   - Direct evaluation computes all approximate results with one bottom-up
//     pass over index posting lists, sorts them, and prunes after n.
//   - Schema-driven evaluation runs the same algorithm against the database
//     schema (a structural summary that is typically orders of magnitude
//     smaller than the data), enumerates "second-level queries" lazily in
//     ascending cost order, and executes each against the data through a
//     path-dependent secondary index until n results are found.
//
// The paper's finding — reproduced by this package's benchmarks — is that
// the schema-driven strategy wins when n is small relative to the total
// number of approximate results, and that the direct strategy catches up
// when most results are wanted anyway.
//
// # Quick start
//
//	b := approxql.NewBuilder(nil)
//	_ = b.AddXMLString(`<catalog><cd><title>Piano Concerto</title></cd></catalog>`)
//	db, _ := b.Database()
//
//	model := approxql.NewCostModel()
//	model.AddRenaming("cd", "mc", approxql.Struct, 4)
//	res, _ := db.Search(`cd[title["piano"]]`, 10, approxql.WithCostModel(model))
//	for _, r := range res {
//		fmt.Printf("cost %d:\n%s", r.Cost, db.Render(r.Root))
//	}
//
// Results can also be pulled lazily in ascending cost order:
//
//	for r, err := range db.Results(`cd[title["piano"]]`, approxql.WithCostModel(model)) {
//		if err != nil {
//			return err
//		}
//		fmt.Println(db.Path(r.Root), r.Cost) // break stops the evaluation
//	}
//
// Every query entry point has a Context variant and evaluates on the
// caller's goroutine; WithParallelism bounds how many shards of a Corpus
// search run at once, and WithMetrics records per-stage execution metrics.
package approxql
