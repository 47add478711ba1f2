// Command axqlbench regenerates the experiments of the paper's Section 8:
// the evaluation-time series of Figure 7(a) (simple path query), 7(b)
// (small Boolean query), and 7(c) (large Boolean query), comparing the
// schema-driven and the direct best-n algorithms over a synthetic collection
// with 0, 5, and 10 renamings per query label.
//
//	axqlbench                      # all three panels at 5% of the paper's scale
//	axqlbench -figure 7a           # one panel
//	axqlbench -scale 1             # the paper's full 1M-element collection
//	axqlbench -backend stored      # postings served from persisted B+trees
//
// -plannercheck replaces the panels with the planner regret check
// (docs/PLANNER.md): the Auto pick timed against both forced strategies,
// failing when it is 2x or more slower than the better one on any point.
// The repository benchmark that judges performance changes is benchmark/.
package main

import (
	"fmt"
	"os"

	"approxql/internal/cli"
)

func main() {
	if err := cli.Bench(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "axqlbench:", err)
		os.Exit(1)
	}
}
