package approxql

import (
	"context"
	"iter"
)

// Results returns a pull-based iterator over the ranked results of an
// approXQL query, in ascending cost order and, within a cost tier, in
// ascending root order. It is the range-over-func companion of Stream:
// results are produced lazily by the incremental schema-driven engine, so
// breaking out of the loop early stops the evaluation after the current
// cost tier: past the second-level query that opened the next tier,
// nothing further is planned and no further secondary fetches happen.
//
//	for r, err := range db.Results(`cd[title["concerto"]]`, approxql.WithCostModel(model)) {
//		if err != nil {
//			return err
//		}
//		fmt.Println(db.Path(r.Root), r.Cost)
//	}
//
// Errors (a syntax error in the query, a failing secondary-index read) are
// yielded as the final pair with a zero Result; a nil error accompanies
// every real result.
func (db *Database) Results(query string, opts ...QueryOption) iter.Seq2[Result, error] {
	return db.ResultsContext(context.Background(), query, opts...)
}

// ResultsContext is Results with cancellation: when the context fires
// mid-iteration, the iterator yields ctx.Err() and stops.
func (db *Database) ResultsContext(ctx context.Context, query string, opts ...QueryOption) iter.Seq2[Result, error] {
	return func(yield func(Result, error) bool) {
		stopped := false
		err := db.StreamContext(ctx, query, func(r Result) bool {
			stopped = !yield(r, nil)
			return !stopped
		}, opts...)
		if err != nil && !stopped {
			yield(Result{}, err)
		}
	}
}
