package approxql

import (
	"context"
	"iter"

	"approxql/internal/exec"
)

// Results returns a pull-based iterator over the ranked results of an
// approXQL query, in ascending cost order. It is the range-over-func
// companion of Stream: results are produced lazily by the incremental
// schema-driven engine, so breaking out of the loop early stops the
// evaluation after the current second-level query — nothing further is
// planned and no further secondary fetches happen.
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
		c := db.config(opts)
		x, err := parseExpand(query, &c)
		if err != nil {
			yield(Result{}, err)
			return
		}
		stopped := false
		err = db.engine(c, 0).Run(ctx, x, func(it exec.Item) bool {
			if !yield(Result{Root: it.Root, Cost: it.Cost}, nil) {
				stopped = true
				return false
			}
			return true
		})
		if err != nil && !stopped {
			yield(Result{}, err)
		}
	}
}
