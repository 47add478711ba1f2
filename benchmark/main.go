// Command benchmark is the repository's benchmark: one program that sets a
// workload up, checks every answer, and prints every metric of
// BENCHMARK.json by name. README.md describes the workloads and metrics.
//
//	bash benchmark/run.sh --workload topn-schema --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		root      = fs.String("root", ".", "checkout root: the directory holding BENCHMARK.json and benchmark/")
		name      = fs.String("workload", "", "workload to run; empty runs every workload of BENCHMARK.json")
		seed      = fs.Int64("seed", 1, "seed of the request stream")
		seconds   = fs.Float64("seconds", 0, "length of the measured phase (default: run_seconds of BENCHMARK.json)")
		trace     = fs.Int("trace", 0, "0 reports the end-to-end metrics, 1 the per-layer metrics of a traced run")
		selfcheck = fs.Int("selfcheck", 0, "run two sets of this many runs per workload and compare them against the bounds")
		expected  = fs.Bool("write-expected", false, "rewrite benchmark/expected/ from the oracle instead of checking it")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	sp, err := readSpec(*root)
	if err != nil {
		return err
	}
	if *seconds <= 0 {
		*seconds = float64(sp.RunSeconds)
	}
	var loads []workload
	for _, sl := range sp.Workloads {
		w, ok := findWorkload(sl.Name)
		if !ok {
			return fmt.Errorf("BENCHMARK.json names workload %q, which benchmark/ does not define", sl.Name)
		}
		if *name == "" || *name == w.name {
			loads = append(loads, w)
		}
	}
	if len(loads) == 0 {
		return fmt.Errorf("unknown workload %q", *name)
	}
	base := config{
		root: *root, out: filepath.Join(*root, "benchmark", "out"), seed: *seed, seconds: *seconds, trace: *trace != 0,
		scale: dataScale, minSamples: p99MinSamples, writeExpected: *expected, log: stdout,
	}
	if *selfcheck > 0 {
		return selfCheck(base, sp, loads, *selfcheck, stdout)
	}
	for _, w := range loads {
		cfg := base
		cfg.workload = w
		if cfg.writeExpected {
			if _, err := prepare(cfg); err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			continue
		}
		res, err := runOne(cfg, sp)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return nil
}

// runOne runs one workload once and attaches the spec's units.
func runOne(cfg config, sp *spec) (result, error) {
	p, err := prepare(cfg)
	if err != nil {
		return result{}, err
	}
	list, do := sp.EndToEnd, runEndToEnd
	if cfg.trace {
		list, do = sp.PerLayer, runTraced
	}
	out, err := do(cfg, p)
	if err != nil {
		return result{}, err
	}
	printValues(cfg.log, list, out.values)
	metrics, err := report(list, out.values)
	if err != nil {
		return result{}, err
	}
	return result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: metrics}, nil
}
