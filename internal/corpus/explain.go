package corpus

import (
	"context"
	"sort"
	"sync"

	"approxql/internal/cost"
	"approxql/internal/exec"
	"approxql/internal/kbest"
	"approxql/internal/lang"
)

// Plan describes one transformed query aggregated across shards. Shards
// have independent schemas, so second-level queries are merged by their
// label structure (the class-free shape of the transformed query): two
// shards' plans with the same labels, nesting, and cost are one corpus
// plan whose result count is the sum.
type Plan struct {
	// Rendered is the label-structure form, e.g. "cd[title[concerto]]".
	Rendered string
	// Cost is the embedding cost every result of this plan receives.
	Cost cost.Cost
	// Results is the total number of subtrees retrieved, summed over the
	// shards that plan this query.
	Results int
	// Shards counts the shards whose schema generates this plan.
	Shards int
}

// Explain plans the best k second-level queries on every unpruned shard
// and merges them into one cost-ranked corpus view. Result counts come
// from the engines' count-only path; no result list is materialized.
func (c *Corpus) Explain(ctx context.Context, x *lang.Expanded, k int, cfg Config) ([]Plan, error) {
	active, pruned := c.filterShards(x)
	if cfg.Metrics != nil {
		cfg.Metrics.Shards += len(active)
		cfg.Metrics.ShardsPruned += pruned
	}
	if len(active) == 0 {
		return nil, nil
	}
	workers := resolveWorkers(cfg, len(active))
	perShard := make([][]exec.PlanInfo, len(active))
	ctx2, cancel := context.WithCancel(ctx)
	defer cancel()

	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				sh := active[i]
				var m exec.Metrics
				eng := exec.New(sh.be.Schema(), sh.be, exec.Config{Metrics: &m})
				plans, err := eng.Explain(ctx2, x, k)
				mu.Lock()
				if cfg.Metrics != nil {
					cfg.Metrics.Merge(&m)
				}
				if err != nil {
					if firstErr == nil {
						firstErr = err
						cancel()
					}
				} else {
					perShard[i] = plans
				}
				mu.Unlock()
			}
		}()
	}
	for i := range active {
		select {
		case jobs <- i:
		case <-ctx2.Done():
		}
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Merge by (cost, canonical label signature): class identifiers are
	// shard-local, the label shape is not.
	type key struct {
		cost cost.Cost
		sig  string
	}
	merged := make(map[key]*Plan)
	var order []key
	for _, plans := range perShard {
		for _, p := range plans {
			k := key{cost: p.Entry.Cost, sig: kbest.LabelSignature(p.Entry)}
			pl := merged[k]
			if pl == nil {
				pl = &Plan{Rendered: kbest.RenderLabels(p.Entry), Cost: p.Entry.Cost}
				merged[k] = pl
				order = append(order, k)
			}
			pl.Results += p.Results
			pl.Shards++
		}
	}
	out := make([]Plan, 0, len(order))
	for _, k := range order {
		out = append(out, *merged[k])
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cost != out[j].Cost {
			return out[i].Cost < out[j].Cost
		}
		return out[i].Rendered < out[j].Rendered
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out, nil
}
