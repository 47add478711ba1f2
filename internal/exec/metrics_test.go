package exec_test

import (
	"reflect"
	"testing"
	"time"

	"approxql/internal/exec"
)

func TestMetricsMerge(t *testing.T) {
	agg := exec.Metrics{
		PlanTime: time.Second, Rounds: 2,
		FinalK: 16, MaxK: 32, Planned: 20, Executed: 18, Deduped: 2,
		EmptyExecuted: 3, ResultsEmitted: 10, EvalAncestorsVisited: 7,
	}
	agg.Merge(&exec.Metrics{
		PlanTime: time.Second, ExecTime: 2 * time.Second,
		Rounds: 1, FinalK: 8, MaxK: 64,
		Planned: 8, Executed: 8, EmptyExecuted: 1, SecondaryFetches: 5, PostingsScanned: 50,
		BackendFetches: 5, BackendHits: 3, BackendBytesDecoded: 1024,
		EvalAncestorsVisited: 5, ResultsEmitted: 4, Truncated: true,
	})
	want := exec.Metrics{
		PlanTime: 2 * time.Second, ExecTime: 2 * time.Second,
		Rounds: 3,
		FinalK: 16, MaxK: 64, Planned: 28, Executed: 26, Deduped: 2, EmptyExecuted: 4,
		SecondaryFetches: 5, PostingsScanned: 50,
		BackendFetches: 5, BackendHits: 3, BackendBytesDecoded: 1024,
		EvalAncestorsVisited: 12, ResultsEmitted: 14, Truncated: true,
	}
	if !reflect.DeepEqual(agg, want) {
		t.Errorf("Merge:\ngot  %+v\nwant %+v", agg, want)
	}
}

func TestMetricsSnapshotIsolation(t *testing.T) {
	m := exec.Metrics{Rounds: 1, Planned: 8}
	s := m.Snapshot()
	m.Merge(&exec.Metrics{Rounds: 1, Planned: 16})
	if s.Planned != 8 || s.Rounds != 1 {
		t.Errorf("snapshot changed under later merges: %+v", s)
	}
}
