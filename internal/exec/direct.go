package exec

import (
	"context"

	"approxql/internal/eval"
	"approxql/internal/index"
	"approxql/internal/lang"
	"approxql/internal/xmltree"
)

// Direct answers the best-n-pairs problem for x with the direct algorithm
// (Section 6) over tree and its postings src: one evaluator, released
// before returning. When m is non-nil it receives the evaluator's counters
// and the results emitted. Every evaluation step checks ctx, so a deadline
// or cancellation stops the evaluation and Direct returns ctx.Err(). It is
// the one Direct call sequence behind Database.Search and the corpus
// shards.
func Direct(ctx context.Context, tree *xmltree.Tree, src index.Source, x *lang.Expanded, n int, m *Metrics) ([]eval.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ev := eval.New(tree, src)
	res, err := ev.BestNContext(ctx, x, n)
	if m != nil {
		st := ev.Stats()
		m.EvalArenaChunks += st.ArenaChunks
		m.EvalArenaEntries += st.ArenaEntries
		m.EvalScratchHits += st.ScratchHits
		m.EvalScratchMisses += st.ScratchMisses
		m.ResultsEmitted += len(res)
	}
	ev.Release()
	return res, err
}
