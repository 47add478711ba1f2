package kbest_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"approxql/internal/kbest"
	"approxql/internal/lang"
)

// TestSecondLevelConcurrent plans the paper catalogue from 8 goroutines at
// once, each over its own share of the queries and several times over, so
// that planners pass between goroutines through the pool: every plan must
// equal the serial one.
func TestSecondLevelConcurrent(t *testing.T) {
	sch, qg := goldenWorld(t)
	_, xs := goldenQueries(t, qg)
	plans := func(x *lang.Expanded, k int) (string, error) {
		lp, err := kbest.NewEngine(sch, k).SecondLevel(x)
		var b bytes.Buffer
		for _, e := range lp {
			fmt.Fprintf(&b, "%d %s %s\n", e.Cost, kbest.Render(e), kbest.Signature(e))
		}
		return b.String(), err
	}
	ks := []int{8, 64}
	want := make([][]string, len(xs))
	for i, x := range xs {
		for _, k := range ks {
			s, err := plans(x, k)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = append(want[i], s)
		}
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i := w; i < len(xs); i += workers {
					for ki, k := range ks {
						got, err := plans(xs[i], k)
						if err != nil {
							t.Error(err)
							return
						}
						if got != want[i][ki] {
							t.Errorf("worker %d: query %d at k=%d differs from serial planning", w, i, k)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}
