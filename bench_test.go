package approxql_test

// The benchmarks regenerate the paper's evaluation (Section 8, Figure 7)
// as testing.B benches:
//
//   - BenchmarkFigure7a — simple path query  (pattern 1)
//   - BenchmarkFigure7b — small Boolean query (pattern 2)
//   - BenchmarkFigure7c — large Boolean query (pattern 3)
//
// Each panel sweeps renamings/label ∈ {0, 5, 10} and n ∈ {1, 10, 100, 1000,
// ∞} for both algorithms ("schema" = Section 7, "direct" = Section 6); the
// series shapes correspond to the paper's diagrams. The collection defaults
// to 1% of the paper's 1M elements / 10M words; set APPROXQL_BENCH_SCALE to
// change it (1.0 reproduces the paper's collection and needs several GB of
// memory).
//
// The ablation benches cover the design choices called out in DESIGN.md:
// dynamic programming on/off, initial-k sensitivity of the incremental
// algorithm, and in-memory vs. B+tree-backed postings.
//
// Run everything with:
//
//	go test -bench=. -benchmem
import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"

	"approxql/internal/bench"
	"approxql/internal/eval"
	"approxql/internal/index"
	"approxql/internal/lang"
	"approxql/internal/querygen"
	"approxql/internal/schema"
	"approxql/internal/storage"
	"approxql/internal/xmltree"
)

var benchState struct {
	once   sync.Once
	runner *bench.Runner
	err    error
}

func benchScale() float64 {
	if s := os.Getenv("APPROXQL_BENCH_SCALE"); s != "" {
		if f, err := strconv.ParseFloat(s, 64); err == nil && f > 0 {
			return f
		}
	}
	return 0.01
}

func benchRunner(b *testing.B) *bench.Runner {
	b.Helper()
	benchState.once.Do(func() {
		benchState.runner, benchState.err = bench.NewRunner(bench.Default(benchScale()))
	})
	if benchState.err != nil {
		b.Fatal(benchState.err)
	}
	return benchState.runner
}

// benchFigure7 runs one panel: every (renamings, n, algorithm) series point
// becomes a sub-benchmark whose time is the mean evaluation time over the
// pattern's query set — the quantity Figure 7 plots.
func benchFigure7(b *testing.B, pattern string) {
	r := benchRunner(b)
	for _, renamings := range []int{0, 5, 10} {
		for _, n := range []int{1, 10, 100, 1000, bench.AllN} {
			for _, algo := range []bench.Algo{bench.Schema, bench.Direct} {
				name := fmt.Sprintf("renamings=%d/n=%s/algo=%s", renamings, bench.FormatN(n), algo)
				b.Run(name, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						m, err := r.Measure(pattern, renamings, n, algo)
						if err != nil {
							b.Fatal(err)
						}
						if i == 0 {
							b.ReportMetric(m.MeanResults, "results/query")
							b.ReportMetric(float64(m.MeanTime.Nanoseconds()), "ns/query")
						}
					}
				})
			}
		}
	}
}

// BenchmarkFigure7a reproduces Figure 7(a): the simple path query
// name[name[name[term]]]. Expected shape: schema beats direct at every n,
// including n = ∞ (second-level path queries always have embeddings and the
// secondary postings are short).
func BenchmarkFigure7a(b *testing.B) { benchFigure7(b, "pattern1") }

// BenchmarkFigure7b reproduces Figure 7(b): the small Boolean query
// name[name[term and (term or term)]]. Expected shape: schema wins for
// small n; direct catches up as n approaches all results.
func BenchmarkFigure7b(b *testing.B) { benchFigure7(b, "pattern2") }

// BenchmarkFigure7c reproduces Figure 7(c): the large Boolean query of the
// Section 8.1 table. Expected shape: like 7(b) but with higher absolute
// times, degrading further with 10 renamings per label.
func BenchmarkFigure7c(b *testing.B) { benchFigure7(b, "pattern3") }

// BenchmarkDirectEval measures algorithm primary end to end — the direct
// strategy's hot path — with a fresh Evaluator per iteration, as production
// queries run it. It sweeps the paper patterns, 0 and 10 renamings per label
// (the ends of Figure 7's columns, so the cost of a renamed node shows as
// the gap between them); allocs/op is the headline number the allocation
// discipline work targets (see docs/PERFORMANCE.md).
func BenchmarkDirectEval(b *testing.B) {
	r := benchRunner(b)
	qg, err := querygen.New(r.Tree(), 2002)
	if err != nil {
		b.Fatal(err)
	}
	for _, pi := range []int{0, 2} {
		pattern := querygen.PaperPatterns[pi]
		for _, ren := range []int{0, 10} {
			g, err := qg.Generate(pattern, ren)
			if err != nil {
				b.Fatal(err)
			}
			x := lang.Expand(g.Query, g.Model)
			b.Run(fmt.Sprintf("%s/ren=%d", pattern.Name, ren), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					ev := eval.New(r.Tree(), r.Backend())
					if _, err := ev.BestN(x, 10); err != nil {
						b.Fatal(err)
					}
					ev.Release()
				}
			})
		}
	}
}

// --- Ablations -------------------------------------------------------------

// benchWorkload returns a fixed mid-size workload for the ablations.
func benchWorkload(b *testing.B, renamings int) (*xmltree.Tree, *querygen.Generated) {
	b.Helper()
	r := benchRunner(b)
	qg, err := querygen.New(r.Tree(), 99)
	if err != nil {
		b.Fatal(err)
	}
	g, err := qg.Generate(querygen.PaperPatterns[2], renamings)
	if err != nil {
		b.Fatal(err)
	}
	return r.Tree(), g
}

// BenchmarkAblationDP measures the effect of the dynamic programming
// (memoized subquery evaluation) in algorithm primary on the large Boolean
// pattern with renamings, where deletion bridges share subtrees.
func BenchmarkAblationDP(b *testing.B) {
	tree, g := benchWorkload(b, 5)
	ix := index.Build(tree)
	x := lang.Expand(g.Query, g.Model)
	for _, disable := range []bool{false, true} {
		name := "memo=on"
		if disable {
			name = "memo=off"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ev := eval.New(tree, ix)
				ev.DisableMemo = disable
				if _, err := ev.BestN(x, 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationStorage compares direct evaluation over in-memory
// postings with evaluation over postings served from the embedded B+tree
// store (the Berkeley DB role).
func BenchmarkAblationStorage(b *testing.B) {
	tree, g := benchWorkload(b, 0)
	mem := index.Build(tree)
	x := lang.Expand(g.Query, g.Model)

	db, err := storage.Open("", nil)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	if err := index.Save(mem, db); err != nil {
		b.Fatal(err)
	}
	stored := index.OpenStored(db)

	b.Run("postings=memory", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eval.New(tree, mem).BestN(x, 10); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("postings=btree", func(b *testing.B) {
		// stored has no cache attached, so every fetch reads the store.
		for i := 0; i < b.N; i++ {
			if _, err := eval.New(tree, stored).BestN(x, 10); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkIndexBuild and BenchmarkSchemaBuild measure offline costs.
func BenchmarkIndexBuild(b *testing.B) {
	r := benchRunner(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		index.Build(r.Tree())
	}
}

func BenchmarkSchemaBuild(b *testing.B) {
	r := benchRunner(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		schema.Build(r.Tree())
	}
}
