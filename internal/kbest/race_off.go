//go:build !race

package kbest

// raceEnabled reports whether the race detector is compiled in; allocation
// budgets are skipped under -race because instrumentation inflates counts.
const raceEnabled = false
