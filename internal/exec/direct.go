package exec

import (
	"context"
	"runtime"

	"approxql/internal/eval"
	"approxql/internal/index"
	"approxql/internal/lang"
	"approxql/internal/xmltree"
)

// Direct answers the best-n-pairs problem for x with the direct algorithm
// (Section 6) over tree and its postings src: one evaluator, released
// before returning. parallelism bounds the evaluator's goroutines; zero
// means GOMAXPROCS. When m is non-nil it receives the evaluator's counters,
// the results emitted and the effective worker count. Every evaluation
// step checks ctx, so a deadline or cancellation stops the evaluation and
// Direct returns ctx.Err(). It is the one Direct call sequence behind
// Database.Search and the corpus shards.
func Direct(ctx context.Context, tree *xmltree.Tree, src index.Source, x *lang.Expanded, n, parallelism int, m *Metrics) ([]eval.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ev := eval.New(tree, src)
	if parallelism > 0 {
		ev.Parallelism = parallelism
	} else {
		ev.Parallelism = runtime.GOMAXPROCS(0)
	}
	res, err := ev.BestNContext(ctx, x, n)
	if m != nil {
		st := ev.Stats()
		m.EvalArenaChunks += st.ArenaChunks
		m.EvalArenaEntries += st.ArenaEntries
		m.EvalScratchHits += st.ScratchHits
		m.EvalScratchMisses += st.ScratchMisses
		m.EvalParallelForks += st.ParallelForks
		m.ResultsEmitted += len(res)
		// Report the effective worker count (Primary clamps to
		// GOMAXPROCS), mirroring the schema-driven engine.
		m.Parallelism = max(m.Parallelism, min(ev.Parallelism, runtime.GOMAXPROCS(0)))
	}
	ev.Release()
	return res, err
}
