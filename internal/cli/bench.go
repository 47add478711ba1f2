package cli

import (
	"flag"
	"fmt"
	"io"
	"time"

	"approxql/internal/bench"
	"approxql/internal/querygen"
)

// Bench is the axqlbench entry point: it regenerates the evaluation-time
// series of the paper's Figure 7, over the in-memory or the stored
// (B+tree-backed) backend. With -plannercheck it runs the planner regret
// check instead.
func Bench(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("axqlbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scale    = fs.Float64("scale", 0.05, "collection scale relative to the paper's 1M elements / 10M words")
		figure   = fs.String("figure", "all", "which panel to run: 7a, 7b, 7c, or all")
		queries  = fs.Int("queries", 10, "queries averaged per point")
		seed     = fs.Int64("seed", 2002, "query-generation seed")
		backendF = fs.String("backend", "memory", "posting source: memory (in-memory indexes) or stored (persisted B+tree indexes)")
		pcheck   = fs.Bool("plannercheck", false, "instead of the Figure 7 panels, time the planner's auto pick against both forced strategies at n=10 and n=100 and fail when auto is 2x or more slower than the best forced strategy on any paper-pattern point")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *backendF != "memory" && *backendF != "stored" {
		return fmt.Errorf("axqlbench: unknown backend %q (want memory or stored)", *backendF)
	}

	cfg := bench.Default(*scale)
	cfg.QueriesPerPoint = *queries
	cfg.QuerySeed = *seed
	cfg.Backend = *backendF
	if *pcheck {
		cfg.Renamings = []int{0, 5}
	}

	fmt.Fprintf(stderr, "generating collection (%d elements, %d words), backend=%s...\n",
		cfg.Data.TargetElements, cfg.Data.TargetWords, *backendF)
	start := time.Now()
	runner, err := bench.NewRunner(cfg)
	if err != nil {
		return err
	}
	defer runner.Close()
	ts, ss := runner.DataStats()
	fmt.Fprintf(stderr,
		"ready in %v: %d nodes (%d elements, %d words), schema: %d classes, largest class %d\n\n",
		time.Since(start).Round(time.Millisecond),
		ts.Nodes, ts.StructNodes, ts.TextNodes, ss.Classes, ss.MaxInstances)

	if *pcheck {
		return plannerCheck(runner, stdout, stderr)
	}
	panels := map[string]string{"7a": "pattern1", "7b": "pattern2", "7c": "pattern3"}
	for _, panel := range []string{"7a", "7b", "7c"} {
		if *figure != "all" && *figure != panel {
			continue
		}
		pattern := panels[panel]
		var desc string
		for _, p := range querygen.PaperPatterns {
			if p.Name == pattern {
				desc = p.Desc + ": " + p.Src
			}
		}
		fmt.Fprintf(stdout, "=== Figure %s — %s (%s) ===\n", panel, pattern, desc)
		ms, err := runner.Figure7(pattern)
		if err != nil {
			return err
		}
		bench.PrintSeries(stdout, ms)
		fmt.Fprintln(stdout)
	}
	return nil
}

// plannerCheck prints the planner tables — the Auto pick against both
// forced strategies, serial, on every paper-pattern point, one table for
// n=10 and one for n=100 — and gates on them with checkPlannerSuite.
func plannerCheck(runner *bench.Runner, stdout, stderr io.Writer) error {
	const pointBudget = 300 * time.Millisecond
	var all []bench.Measurement
	for _, n := range []int{10, 100} {
		ps, err := runner.PlannerSuite(n, pointBudget)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "=== planner suite (n=%d) ===\n", n)
		fmt.Fprintf(stdout, "%-10s %-10s %-8s %14s %12s\n",
			"pattern", "renamings", "strategy", "ns/query", "mean_results")
		for _, m := range ps {
			fmt.Fprintf(stdout, "%-10s %-10d %-8s %14d %12.1f\n",
				m.Pattern, m.Renamings, m.Algo, m.MeanTime.Nanoseconds(), m.MeanResults)
		}
		all = append(all, ps...)
	}
	if err := checkPlannerSuite(all, stderr); err != nil {
		return err
	}
	fmt.Fprintln(stderr, "planner check passed: auto within 2x of the best forced strategy on every point")
	return nil
}

// checkPlannerSuite gates on the planner suite: on every (pattern,
// renamings, n) point the auto measurement must stay under twice the best
// forced strategy's time. A failure means Auto's switch pays too much for
// the strategy it starts with.
func checkPlannerSuite(ps []bench.Measurement, stderr io.Writer) error {
	type point struct {
		pattern   string
		renamings int
		n         int
	}
	best := make(map[point]time.Duration)
	auto := make(map[point]time.Duration)
	for _, m := range ps {
		p := point{m.Pattern, m.Renamings, m.N}
		switch m.Algo {
		case bench.Auto:
			auto[p] = m.MeanTime
		default:
			if b, ok := best[p]; !ok || m.MeanTime < b {
				best[p] = m.MeanTime
			}
		}
	}
	var bad int
	for p, a := range auto {
		b, ok := best[p]
		if !ok || b <= 0 {
			continue
		}
		if a >= 2*b {
			bad++
			fmt.Fprintf(stderr, "planner check: %s/%d n=%d: auto %d ns/query vs best forced %d (%.2fx)\n",
				p.pattern, p.renamings, p.n, a.Nanoseconds(), b.Nanoseconds(), float64(a)/float64(b))
		}
	}
	if bad > 0 {
		return fmt.Errorf("axqlbench: planner picked a strategy >=2x slower than the best forced one on %d point(s)", bad)
	}
	return nil
}
