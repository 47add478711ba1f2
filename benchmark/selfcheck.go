package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// quartiles returns the first and third quartile of the values as Python's
// statistics.quantiles(values, n=4) computes them (the exclusive method),
// which is what the acceptance check of the benchmark contract uses.
func quartiles(values []float64) (q1, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	ld := len(d)
	at := func(i int) float64 {
		j, delta := i*(ld+1)/4, i*(ld+1)%4
		j = min(max(j, 1), ld-1)
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// runChild runs one untraced run in a process of its own, so that peak RSS
// and heap state are that run's alone, and returns its result line.
func runChild(cfg config) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	cmd := exec.Command(self, "-root", cfg.root, "-workload", cfg.workload.name,
		"-seed", strconv.FormatInt(cfg.seed, 10), "-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", "0")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return result{}, fmt.Errorf("seed %d: %w", cfg.seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("seed %d: result line: %w", cfg.seed, err)
	}
	return res, nil
}

// selfCheck is the repeatability tool: per workload, two sets of k runs of
// the same code, each run with a seed of its own. It prints, per end-to-end
// metric, each set's median and quartile spread, and fails when a spread
// (set-up time aside) exceeds the metric's bound or the second median is
// worse than the first by more than the bound — the acceptance rule of the
// benchmark contract. Its output is committed as REPEATABILITY.md.
func selfCheck(base config, sp *spec, loads []workload, k int, out io.Writer) error {
	if k < 2 {
		return fmt.Errorf("-selfcheck needs at least 2 runs per set")
	}
	fmt.Fprintf(out, "# Repeatability\n\nTwo sets of %d runs per workload, %g s each, seeds 1–%d and %d–%d, on %d CPUs.\n",
		k, base.seconds, k, k+1, 2*k, clients())
	fmt.Fprintf(out, "Spread is (Q3 − Q1) ÷ median; drift is how much worse the second set's median is than the first's.\n")
	bad := 0
	for _, w := range loads {
		var sets [2]map[string][]float64
		for s := range sets {
			sets[s] = make(map[string][]float64)
			for i := 0; i < k; i++ {
				cfg := base
				cfg.workload = w
				cfg.seed = int64(s*k + i + 1)
				res, err := runChild(cfg)
				if err != nil {
					return fmt.Errorf("%s: %w", w.name, err)
				}
				if !res.Correct {
					return fmt.Errorf("%s: seed %d: %d of %d checks failed", w.name, cfg.seed, res.Failed, res.Attempted)
				}
				for name, m := range res.Metrics {
					sets[s][name] = append(sets[s][name], m.Value)
				}
			}
		}
		fmt.Fprintf(out, "\n## %s\n\n| metric | unit | median A | spread A | median B | spread B | drift | bound | |\n|---|---|---|---|---|---|---|---|---|\n", w.name)
		for _, m := range sp.EndToEnd {
			var med, spread [2]float64
			for s := range sets {
				med[s] = median(sets[s][m.Name])
				q1, q3 := quartiles(sets[s][m.Name])
				spread[s] = ratio(q3-q1, med[s])
			}
			drift := ratio(med[1]-med[0], med[0])
			if m.Better == "higher" {
				drift = -drift
			}
			verdict := "ok"
			if drift > m.Bound || (m.Name != "setup_s" && max(spread[0], spread[1]) > m.Bound) {
				verdict = "FAIL"
				bad++
			}
			fmt.Fprintf(out, "| %s | %s | %.4g | %.2f%% | %.4g | %.2f%% | %+.2f%% | %.1f%% | %s |\n",
				m.Name, m.Unit, med[0], 100*spread[0], med[1], 100*spread[1], 100*drift, 100*m.Bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d metric(s) outside their bound", bad)
	}
	return nil
}
