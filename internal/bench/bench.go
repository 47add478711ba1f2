// Package bench is the experiment harness for Section 8 of the paper: it
// generates the synthetic collection, produces the query sets of the three
// query patterns with 0, 5, and 10 renamings per label, and measures the
// evaluation time of the direct (Section 6) and schema-driven (Section 7)
// best-n algorithms, regenerating the series of Figure 7(a)–(c).
package bench

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"approxql/internal/backend"
	"approxql/internal/corpus"
	"approxql/internal/cost"
	"approxql/internal/datagen"
	"approxql/internal/eval"
	"approxql/internal/exec"
	"approxql/internal/index"
	"approxql/internal/kbest"
	"approxql/internal/lang"
	"approxql/internal/querygen"
	"approxql/internal/schema"
	"approxql/internal/storage"
	"approxql/internal/xmltree"
)

// AllN is the sentinel for n = ∞ (retrieve all approximate results).
const AllN = 0

// Config parameterizes a harness run.
type Config struct {
	// Data configures the synthetic collection (Section 8.1 parameters).
	Data datagen.Config
	// QueriesPerPoint is the number of random queries averaged per
	// diagram point (the paper uses 10).
	QueriesPerPoint int
	// QuerySeed seeds the query generator.
	QuerySeed int64
	// Renamings are the tested renamings-per-label levels (paper: 0, 5, 10).
	Renamings []int
	// NValues are the tested result counts; AllN means all results
	// (the paper's n = ∞).
	NValues []int
	// Backend selects where the postings are served from: "memory" (the
	// default) builds in-memory indexes; "stored" persists I_struct/I_text
	// and I_sec into B+tree files in a temporary directory and evaluates
	// against them — the paper's disk-resident configuration.
	Backend string
}

// Default returns the paper's experimental design over a collection scaled
// by f relative to the paper's 1M elements / 10M words.
func Default(f float64) Config {
	return Config{
		Data:            datagen.Paper(1).Scale(f),
		QueriesPerPoint: 10,
		QuerySeed:       2002,
		Renamings:       []int{0, 5, 10},
		NValues:         []int{1, 10, 100, 1000, AllN},
	}
}

// Algo names an evaluation algorithm.
type Algo string

const (
	// Direct is the pruning approach: compute everything, sort, prune.
	Direct Algo = "direct"
	// Schema is the schema-driven incremental approach.
	Schema Algo = "schema"
	// Auto runs the production Auto path: Direct for n = ∞, otherwise
	// Schema under the direct algorithm's price, switching to Direct when
	// the run spends it (internal/plan).
	Auto Algo = "auto"
)

// Measurement is one timed point: of a Figure 7 series, or a row of the
// planner suite.
type Measurement struct {
	Pattern   string
	Renamings int
	N         int // AllN means ∞
	Algo      Algo

	// MeanTime is the average evaluation time over the query set.
	MeanTime time.Duration
	// MeanResults is the average number of results returned.
	MeanResults float64
	// Queries is the number of queries averaged.
	Queries int
}

// Runner holds the generated collection, the selected backend, and the
// query sets.
type Runner struct {
	cfg    Config
	tree   *xmltree.Tree
	be     backend.Backend
	sch    *schema.Schema
	c      *corpus.Corpus // be as a one-shard corpus, for Auto
	tmpDir string         // the stored backend's index files, removed by Close

	// sets[pattern][renamings] is one pre-generated query set.
	sets map[string]map[int][]*querygen.Generated
}

// NewRunner generates the collection, builds (or persists and reopens) the
// indexes and the schema, and pre-generates every query set so that
// measurements only time query evaluation. Close the runner to release the
// stored backend's files.
func NewRunner(cfg Config) (*Runner, error) {
	if cfg.QueriesPerPoint <= 0 {
		cfg.QueriesPerPoint = 10
	}
	tree, err := datagen.GenerateTree(cfg.Data, nil)
	if err != nil {
		return nil, err
	}
	r := &Runner{
		cfg:  cfg,
		tree: tree,
		sets: make(map[string]map[int][]*querygen.Generated),
	}
	switch cfg.Backend {
	case "", "memory":
		r.be = backend.NewMemory(tree)
		r.sch = r.be.Schema()
	case "stored":
		if err := r.openStored(tree); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("bench: unknown backend %q", cfg.Backend)
	}
	r.c = corpus.OneShard(r.be, &backend.Summary{})
	qg, err := querygen.New(tree, cfg.QuerySeed)
	if err != nil {
		return nil, err
	}
	for _, p := range querygen.PaperPatterns {
		r.sets[p.Name] = make(map[int][]*querygen.Generated)
		for _, ren := range cfg.Renamings {
			set, err := qg.GenerateSet(p, ren, cfg.QueriesPerPoint)
			if err != nil {
				r.Close()
				return nil, err
			}
			r.sets[p.Name][ren] = set
		}
	}
	return r, nil
}

// openStored persists the postings and I_sec into B+tree files and opens
// the stored backend over them, so measurements pay real storage fetches.
func (r *Runner) openStored(tree *xmltree.Tree) error {
	dir, err := os.MkdirTemp("", "axqlbench")
	if err != nil {
		return err
	}
	r.tmpDir = dir
	postPath := filepath.Join(dir, "postings.db")
	secPath := filepath.Join(dir, "secondary.db")
	sch := schema.Build(tree)
	if err := storage.Persist(postPath, func(s *storage.DB) error {
		return index.Save(index.Build(tree), s)
	}); err != nil {
		return err
	}
	if err := storage.Persist(secPath, sch.SaveSec); err != nil {
		return err
	}
	be, err := backend.OpenStoredOptions(tree, postPath, secPath, backend.StoredOptions{
		CacheEntries: backend.DefaultCacheEntries,
	})
	if err != nil {
		return err
	}
	r.be = be
	r.sch = sch
	return nil
}

// Close releases the backend and removes the stored backend's temporary
// directory, if one was created.
func (r *Runner) Close() error {
	var err error
	if r.be != nil {
		err = r.be.Close()
	}
	if r.tmpDir != "" {
		if rerr := os.RemoveAll(r.tmpDir); rerr != nil && err == nil {
			err = rerr
		}
	}
	return err
}

// Backend returns the runner's posting source.
func (r *Runner) Backend() backend.Backend { return r.be }

// Tree returns the generated collection.
func (r *Runner) Tree() *xmltree.Tree { return r.tree }

// Schema returns the collection's schema.
func (r *Runner) Schema() *schema.Schema { return r.sch }

// DataStats describes the generated collection for reports.
func (r *Runner) DataStats() (xmltree.Stats, schema.Stats) {
	return r.tree.ComputeStats(), r.sch.ComputeStats()
}

// allNMaxK bounds the schema-driven search at the n = ∞ points: permissive
// cost models can induce millions of cheap second-level queries that
// retrieve nothing, and enumerating them all only inflates the measurement
// without changing the paper's qualitative outcome (direct evaluation wins
// when all results are wanted). EXPERIMENTS.md documents the cap.
const allNMaxK = 4096

// Evaluate runs one query with one algorithm and returns the result count.
func (r *Runner) Evaluate(g *querygen.Generated, n int, algo Algo) (int, error) {
	c, _, err := r.EvaluateStats(g, n, algo)
	return c, err
}

// EvaluateStats is Evaluate with the schema-driven engine's metrics (zero
// when the direct algorithm ran).
func (r *Runner) EvaluateStats(g *querygen.Generated, n int, algo Algo) (int, exec.Metrics, error) {
	return r.evaluate(lang.Expand(g.Query, g.Model), n, algo)
}

// evaluate runs x with one algorithm. Auto runs the switch that ships: a
// Database search over the runner's one-shard corpus.
func (r *Runner) evaluate(x *lang.Expanded, n int, algo Algo) (int, exec.Metrics, error) {
	switch algo {
	case Direct:
		res, err := exec.Direct(context.Background(), r.tree, r.be, x, n, nil)
		return len(res), exec.Metrics{}, err
	case Schema:
		res, m, err := schemaBestN(r.sch, r.be, x, n, schemaConfig(n))
		return len(res), m, err
	case Auto:
		var m exec.Metrics
		hits, err := corpus.Search(context.Background(), r.c, x, n, nil, corpus.Config{Auto: true, Metrics: &m},
			func(h corpus.Hit, _ *kbest.Entry) corpus.Hit { return h })
		return len(hits), m, err
	}
	return 0, exec.Metrics{}, fmt.Errorf("bench: unknown algorithm %q", algo)
}

// schemaConfig is the forced schema-driven configuration of the harness:
// the n = ∞ points keep the allNMaxK cap on pulled second-level queries.
func schemaConfig(n int) exec.Config {
	if n > 0 {
		return exec.Config{}
	}
	return exec.Config{MaxK: allNMaxK}
}

// schemaBestN answers the best-n-pairs problem with the incremental
// schema-driven engine, sequentially, in the shape the direct evaluator
// returns: sorted by (cost, root) and cut at n. For n > 0 the engine runs
// under its own n-th emitted cost as the bound, so it finishes the n-th
// cost tier, as Database.Search does. n <= 0 retrieves all results.
func schemaBestN(sch *schema.Schema, sec schema.SecSource, x *lang.Expanded, n int, cfg exec.Config) ([]eval.Result, exec.Metrics, error) {
	var m exec.Metrics
	var res []eval.Result
	bound := cost.Inf
	cfg.Metrics, cfg.Bound = &m, func() cost.Cost { return bound }
	err := exec.New(sch, sec, cfg).Run(context.Background(), x, func(it exec.Item) bool {
		res = append(res, eval.Result{Root: it.Root, Cost: it.Cost})
		if len(res) == n {
			bound = it.Cost
		}
		return true
	})
	sort.SliceStable(res, func(i, j int) bool {
		if res[i].Cost != res[j].Cost {
			return res[i].Cost < res[j].Cost
		}
		return res[i].Root < res[j].Root
	})
	if n > 0 && n < len(res) {
		res = res[:n]
	}
	return res, m, err
}

// Measure times one (pattern, renamings, n, algo) point: the mean over the
// pre-generated query set, matching the paper's "mean of the evaluation
// time of 10 queries randomly generated for the same pattern".
func (r *Runner) Measure(pattern string, renamings, n int, algo Algo) (Measurement, error) {
	set, ok := r.sets[pattern][renamings]
	if !ok {
		return Measurement{}, fmt.Errorf("bench: no query set for %s/%d", pattern, renamings)
	}
	var total time.Duration
	var results int
	for _, g := range set {
		start := time.Now()
		count, err := r.Evaluate(g, n, algo)
		if err != nil {
			return Measurement{}, err
		}
		total += time.Since(start)
		results += count
	}
	return Measurement{
		Pattern:     pattern,
		Renamings:   renamings,
		N:           n,
		Algo:        algo,
		MeanTime:    total / time.Duration(len(set)),
		MeanResults: float64(results) / float64(len(set)),
		Queries:     len(set),
	}, nil
}

// Figure7 measures the full series of one Figure 7 panel: every (renamings,
// n, algorithm) combination for the given pattern.
func (r *Runner) Figure7(pattern string) ([]Measurement, error) {
	var out []Measurement
	for _, ren := range r.cfg.Renamings {
		for _, n := range r.cfg.NValues {
			for _, algo := range []Algo{Schema, Direct} {
				m, err := r.Measure(pattern, ren, n, algo)
				if err != nil {
					return nil, err
				}
				out = append(out, m)
			}
		}
	}
	return out, nil
}

// FormatN renders an n value, using the paper's ∞ for AllN.
func FormatN(n int) string {
	if n == AllN {
		return "inf"
	}
	return fmt.Sprintf("%d", n)
}

// PrintSeries writes measurements as the aligned table the paper's diagrams
// plot: one row per (renamings, n), schema and direct side by side.
func PrintSeries(w io.Writer, ms []Measurement) {
	type key struct {
		ren int
		n   int
	}
	rows := make(map[key]map[Algo]Measurement)
	var keys []key
	for _, m := range ms {
		k := key{m.Renamings, m.N}
		if rows[k] == nil {
			rows[k] = make(map[Algo]Measurement)
			keys = append(keys, k)
		}
		rows[k][m.Algo] = m
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].ren != keys[j].ren {
			return keys[i].ren < keys[j].ren
		}
		// AllN (∞) sorts last.
		ni, nj := keys[i].n, keys[j].n
		if ni == AllN {
			ni = 1 << 30
		}
		if nj == AllN {
			nj = 1 << 30
		}
		return ni < nj
	})
	fmt.Fprintf(w, "%-10s %-6s %12s %12s %10s %12s\n",
		"renamings", "n", "schema", "direct", "speedup", "mean_results")
	for _, k := range keys {
		s, d := rows[k][Schema], rows[k][Direct]
		speedup := float64(d.MeanTime) / float64(s.MeanTime)
		fmt.Fprintf(w, "%-10d %-6s %12s %12s %9.2fx %12.1f\n",
			k.ren, FormatN(k.n),
			s.MeanTime.Round(time.Microsecond),
			d.MeanTime.Round(time.Microsecond),
			speedup, d.MeanResults)
	}
}
