package bench

import (
	"fmt"
	"time"

	"approxql/internal/lang"
)

// MeasureStrategy times one (pattern, renamings, n) point in steady state:
// after one untimed warm-up pass that populates any backend cache, the
// pre-generated query set is evaluated repeatedly until minTime of wall clock
// has accumulated (and at least twice). Query expansion happens outside the
// timed region; with Auto the planner's decision is timed, exactly as the
// production Auto path pays for it.
func (r *Runner) MeasureStrategy(pattern string, renamings, n int, algo Algo, minTime time.Duration) (Measurement, error) {
	set, ok := r.sets[pattern][renamings]
	if !ok || len(set) == 0 {
		return Measurement{}, fmt.Errorf("bench: no query set for %s/%d", pattern, renamings)
	}
	xs := make([]*lang.Expanded, len(set))
	for i, g := range set {
		xs[i] = lang.Expand(g.Query, g.Model)
	}
	runSet := func() (int, error) {
		results := 0
		for _, x := range xs {
			c, _, err := r.evaluate(x, n, algo)
			if err != nil {
				return 0, err
			}
			results += c
		}
		return results, nil
	}
	results, err := runSet() // warm-up, untimed
	if err != nil {
		return Measurement{}, err
	}

	start := time.Now()
	iters := 0
	for time.Since(start) < minTime || iters < 2 {
		if _, err := runSet(); err != nil {
			return Measurement{}, err
		}
		iters++
	}
	return Measurement{
		Pattern:     pattern,
		Renamings:   renamings,
		N:           n,
		Algo:        algo,
		MeanTime:    time.Since(start) / time.Duration(iters*len(set)),
		MeanResults: float64(results) / float64(len(set)),
		Queries:     len(set),
	}, nil
}

// PlannerSuite measures the planner's Auto pick against both forced
// strategies over every (pattern, renamings) point of the paper set, serial,
// at the given result count. The returned slice interleaves, per point,
// Direct, Schema, and Auto measurements; comparing the Auto row to the best
// forced row shows the cost of delegating the choice to the planner.
func (r *Runner) PlannerSuite(n int, minTime time.Duration) ([]Measurement, error) {
	var out []Measurement
	for _, pattern := range []string{"pattern1", "pattern2", "pattern3"} {
		if _, ok := r.sets[pattern]; !ok {
			continue
		}
		for _, ren := range r.cfg.Renamings {
			for _, algo := range []Algo{Direct, Schema, Auto} {
				m, err := r.MeasureStrategy(pattern, ren, n, algo, minTime)
				if err != nil {
					return nil, err
				}
				out = append(out, m)
			}
		}
	}
	return out, nil
}
