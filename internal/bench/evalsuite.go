package bench

import (
	"fmt"
	"runtime"
	"time"

	"approxql/internal/backend"
	"approxql/internal/cost"
	"approxql/internal/eval"
	"approxql/internal/exec"
	"approxql/internal/lang"
	"approxql/internal/plan"
	"approxql/internal/xmltree"
)

// EvalMeasurement is one point of the direct-evaluation suite (`axqlbench
// -suite eval`): one strategy timed over a pre-generated query set with
// allocation counts sampled from the runtime, the harness behind
// BENCH_eval.json.
type EvalMeasurement struct {
	Pattern   string
	Renamings int
	N         int
	// Strategy is the evaluation strategy measured: "direct" or "schema"
	// (forced), or "auto" (the planner resolves the strategy per query).
	Strategy string
	// Workers is the evaluator's Parallelism setting (1 = serial).
	Workers int
	// Queries is the query-set size; Iterations how many times the whole
	// set was evaluated inside the timed region.
	Queries    int
	Iterations int

	// NsPerQuery is the mean wall-clock time of one BestN call.
	NsPerQuery float64
	// AllocsPerQuery and BytesPerQuery are the mean heap allocations
	// (mallocs) and bytes allocated per BestN call, from
	// runtime.ReadMemStats deltas around the timed region.
	AllocsPerQuery float64
	BytesPerQuery  float64
	// MeanResults is the average result count, a sanity check that runs
	// being compared evaluated the same workload.
	MeanResults float64
}

// MeasureDirect times the direct algorithm (a fresh Evaluator per query, as
// the production path uses) over the pre-generated (pattern, renamings) query
// set. The set is evaluated repeatedly until minTime of wall clock has
// accumulated, after one untimed warm-up pass that populates any backend
// cache, so stored and memory backends are measured in steady state.
func (r *Runner) MeasureDirect(pattern string, renamings, n, workers int, minTime time.Duration) (EvalMeasurement, error) {
	return r.MeasureStrategy(pattern, renamings, n, workers, minTime, "direct")
}

// MeasureStrategy is MeasureDirect generalized over the evaluation strategy:
// "direct" (fresh Evaluator per query), "schema" (k-best second-level
// enumeration), or "auto" (the planner decides per query, including the k/δ
// schedule, exactly as the production Auto path does).
func (r *Runner) MeasureStrategy(pattern string, renamings, n, workers int, minTime time.Duration, strategy string) (EvalMeasurement, error) {
	set, ok := r.sets[pattern][renamings]
	if !ok || len(set) == 0 {
		return EvalMeasurement{}, fmt.Errorf("bench: no query set for %s/%d", pattern, renamings)
	}
	xs := make([]*lang.Expanded, len(set))
	for i, g := range set {
		xs[i] = lang.Expand(g.Query, g.Model)
	}
	cs, _ := r.be.(backend.CountSource)

	runDirect := func(x *lang.Expanded) (int, error) {
		ev := eval.New(r.tree, r.be)
		ev.Parallelism = workers
		res, err := ev.BestN(x, n)
		ev.Release()
		return len(res), err
	}
	runSchema := func(x *lang.Expanded, cfg exec.Config) (int, error) {
		res, _, err := schemaBestN(r.sch, r.be, x, n, cfg)
		return len(res), err
	}
	runOne := func(x *lang.Expanded) (int, error) {
		switch strategy {
		case "direct":
			return runDirect(x)
		case "schema":
			return runSchema(x, schemaConfig(n))
		case "auto":
			d := plan.Decide(r.sch, cs, x, n)
			if d.Strategy == plan.Direct {
				return runDirect(x)
			}
			return runSchema(x, exec.Config{
				InitialK: d.InitialK, Delta: d.Delta, Growth: d.Growth,
			})
		}
		return 0, fmt.Errorf("bench: unknown strategy %q (want direct, schema, or auto)", strategy)
	}
	runSet := func() (int, error) {
		results := 0
		for _, x := range xs {
			c, err := runOne(x)
			if err != nil {
				return 0, err
			}
			results += c
		}
		return results, nil
	}
	results, err := runSet() // warm-up, untimed
	if err != nil {
		return EvalMeasurement{}, err
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	iters := 0
	for time.Since(start) < minTime || iters < 2 {
		if _, err := runSet(); err != nil {
			return EvalMeasurement{}, err
		}
		iters++
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)

	evals := float64(iters * len(set))
	return EvalMeasurement{
		Pattern:        pattern,
		Renamings:      renamings,
		N:              n,
		Strategy:       strategy,
		Workers:        workers,
		Queries:        len(set),
		Iterations:     iters,
		NsPerQuery:     float64(elapsed.Nanoseconds()) / evals,
		AllocsPerQuery: float64(after.Mallocs-before.Mallocs) / evals,
		BytesPerQuery:  float64(after.TotalAlloc-before.TotalAlloc) / evals,
		MeanResults:    float64(results) / float64(len(set)),
	}, nil
}

// EvalSuite measures every (pattern, renamings, workers) combination of the
// direct-evaluation suite at the given result count: all three paper
// patterns, the runner's renamings levels, serial and parallel evaluators.
func (r *Runner) EvalSuite(n int, workersList []int, minTime time.Duration) ([]EvalMeasurement, error) {
	var out []EvalMeasurement
	for _, pattern := range []string{"pattern1", "pattern2", "pattern3"} {
		if _, ok := r.sets[pattern]; !ok {
			continue
		}
		for _, ren := range r.cfg.Renamings {
			for _, w := range workersList {
				m, err := r.MeasureDirect(pattern, ren, n, w, minTime)
				if err != nil {
					return nil, err
				}
				out = append(out, m)
			}
		}
	}
	return out, nil
}

// MeasureFetch times the raw posting-read path of one (pattern, renamings)
// point: every distinct (label, kind) the query set's expanded
// representations name — base labels and renaming targets — is fetched and
// decoded through the backend, with no evaluation on top. Against a stored
// backend with the posting cache disabled this isolates exactly the layer
// the storage format determines: B+tree descent, page reads, and posting
// decode. MeanResults reports the mean posting entries decoded per query.
func (r *Runner) MeasureFetch(pattern string, renamings int, minTime time.Duration) (EvalMeasurement, error) {
	set, ok := r.sets[pattern][renamings]
	if !ok || len(set) == 0 {
		return EvalMeasurement{}, fmt.Errorf("bench: no query set for %s/%d", pattern, renamings)
	}
	type fetchKey struct {
		label string
		kind  cost.Kind
	}
	fetchSets := make([][]fetchKey, len(set))
	for i, g := range set {
		x := lang.Expand(g.Query, g.Model)
		seen := make(map[fetchKey]bool)
		for _, n := range x.Nodes {
			if n.Rep != lang.RepNode && n.Rep != lang.RepLeaf {
				continue
			}
			k := fetchKey{n.Label, n.Kind}
			if !seen[k] {
				seen[k] = true
				fetchSets[i] = append(fetchSets[i], k)
			}
			for _, rn := range n.Renamings {
				k := fetchKey{rn.To, n.Kind}
				if !seen[k] {
					seen[k] = true
					fetchSets[i] = append(fetchSets[i], k)
				}
			}
		}
	}
	runSet := func() (int, error) {
		entries := 0
		for _, fs := range fetchSets {
			for _, k := range fs {
				var post []xmltree.NodeID
				var err error
				if k.kind == cost.Text {
					post, err = r.be.Text(k.label)
				} else {
					post, err = r.be.Struct(k.label)
				}
				if err != nil {
					return 0, err
				}
				entries += len(post)
			}
		}
		return entries, nil
	}
	entries, err := runSet() // warm-up, untimed
	if err != nil {
		return EvalMeasurement{}, err
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	iters := 0
	for time.Since(start) < minTime || iters < 2 {
		if _, err := runSet(); err != nil {
			return EvalMeasurement{}, err
		}
		iters++
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)

	evals := float64(iters * len(set))
	return EvalMeasurement{
		Pattern:        pattern,
		Renamings:      renamings,
		Strategy:       "fetch",
		Workers:        1,
		Queries:        len(set),
		Iterations:     iters,
		NsPerQuery:     float64(elapsed.Nanoseconds()) / evals,
		AllocsPerQuery: float64(after.Mallocs-before.Mallocs) / evals,
		BytesPerQuery:  float64(after.TotalAlloc-before.TotalAlloc) / evals,
		MeanResults:    float64(entries) / float64(len(set)),
	}, nil
}

// FetchSuite measures the posting-read path over every (pattern, renamings)
// paper point (see MeasureFetch).
func (r *Runner) FetchSuite(minTime time.Duration) ([]EvalMeasurement, error) {
	var out []EvalMeasurement
	for _, pattern := range []string{"pattern1", "pattern2", "pattern3"} {
		if _, ok := r.sets[pattern]; !ok {
			continue
		}
		for _, ren := range r.cfg.Renamings {
			m, err := r.MeasureFetch(pattern, ren, minTime)
			if err != nil {
				return nil, err
			}
			out = append(out, m)
		}
	}
	return out, nil
}

// PlannerSuite measures the planner's Auto pick against both forced
// strategies over every (pattern, renamings) point of the paper set, serial,
// at the given result count. The returned slice interleaves, per point,
// "direct", "schema", and "auto" measurements; comparing the auto row to the
// best forced row shows the cost of delegating the choice to the planner.
func (r *Runner) PlannerSuite(n int, minTime time.Duration) ([]EvalMeasurement, error) {
	var out []EvalMeasurement
	for _, pattern := range []string{"pattern1", "pattern2", "pattern3"} {
		if _, ok := r.sets[pattern]; !ok {
			continue
		}
		for _, ren := range r.cfg.Renamings {
			for _, strategy := range []string{"direct", "schema", "auto"} {
				m, err := r.MeasureStrategy(pattern, ren, n, 1, minTime, strategy)
				if err != nil {
					return nil, err
				}
				out = append(out, m)
			}
		}
	}
	return out, nil
}
