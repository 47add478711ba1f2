package corpus

import (
	"context"
	"errors"
	"sort"
	"sync"

	"approxql/internal/cost"
	"approxql/internal/exec"
	"approxql/internal/lang"
)

// streamItem is one element of a per-shard stream: a hit, or the stream's
// terminal marker carrying the shard engine's error (nil on clean end).
type streamItem struct {
	hit  Hit
	done bool
	err  error
}

// streamJob parameterizes one per-shard stream producer beyond the shared
// Config: the per-shard result bound direct shards evaluate to, the
// external cost cutoff, and whether the per-shard strategy is resolved
// (Auto/Direct from cfg) instead of forced schema-driven.
type streamJob struct {
	n       int
	bound   func() cost.Cost
	resolve bool
}

// Stream retrieves hits incrementally in ascending global (cost, doc,
// root) order, calling fn for each; fn returns false to stop. Every active
// shard streams its own engine's emission concurrently; the merger
// releases a hit only once every other stream's next hit is known to be no
// better, so the caller observes one globally sorted sequence.
//
// A shard engine emits equal-cost hits in plan order, not root order, so
// each producer buffers one cost tier at a time and sorts it by root
// before forwarding — within a shard, root order is doc order, making
// each per-shard stream (cost, doc, root)-ascending.
//
// Streams run without the top-n cutoff (the consumer decides when to
// stop), so a stopped stream has done per-shard work proportional to how
// far the costs ran, exactly like Database.Stream.
func (c *Corpus) Stream(ctx context.Context, x *lang.Expanded, cfg Config, fn func(Hit) bool) error {
	return c.stream(ctx, x, cfg, streamJob{}, fn)
}

// ServeStream is the shard-node primitive of a cluster: it streams the
// corpus's hits in ascending (cost, doc, root) order like Stream, but
// resolves the per-shard strategy from cfg (Auto/Direct, like Search) and
// runs under an external cost cutoff. bound must be monotone
// non-increasing, returning cost.Inf while no bound is known — typically a
// gatherer's current global n-th cost. Hits whose cost strictly exceeds
// the bound at emission time are never delivered; equal-cost hits always
// are, preserving the gather heap's tie-exactness. n bounds each direct
// shard's per-shard BestN (n <= 0: all results); schema shards run
// unbounded under the cutoff, exactly as in Search.
func (c *Corpus) ServeStream(ctx context.Context, x *lang.Expanded, n int, bound func() cost.Cost, cfg Config, fn func(Hit) bool) error {
	return c.stream(ctx, x, cfg, streamJob{n: n, bound: bound, resolve: true}, fn)
}

// stream is the shared scatter/merge body of Stream and ServeStream.
func (c *Corpus) stream(ctx context.Context, x *lang.Expanded, cfg Config, job streamJob, fn func(Hit) bool) error {
	active, pruned := c.filterShards(x)
	merged := &exec.Metrics{}
	merged.Shards = len(active)
	merged.ShardsPruned = pruned
	defer func() {
		finishPlanner(merged, cfg)
		if cfg.Metrics != nil {
			cfg.Metrics.Merge(merged)
		}
	}()
	if len(active) == 0 {
		return nil
	}

	ctx2, cancel := context.WithCancel(ctx)
	defer cancel()

	metrics := make([]exec.Metrics, len(active))
	streams := make([]chan streamItem, len(active))
	var wg sync.WaitGroup
	for i, sh := range active {
		streams[i] = make(chan streamItem, 16)
		wg.Add(1)
		go func(i int, sh *Shard) {
			defer wg.Done()
			streamShard(ctx2, sh, x, cfg, job, &metrics[i], streams[i])
		}(i, sh)
	}
	// The producers select on ctx2 when sending, so cancelling first
	// releases any producer blocked on a full channel even when the
	// merger returns early; their metrics are folded in once they are
	// all done. This runs before the cfg.Metrics defer above.
	defer func() {
		cancel()
		wg.Wait()
		for i := range metrics {
			merged.Merge(&metrics[i])
		}
	}()

	// K-way merge: heads holds each live stream's next hit; each round
	// releases the globally smallest head and refills its stream.
	type head struct {
		hit  Hit
		live bool
	}
	heads := make([]head, len(active))
	fill := func(i int) error {
		select {
		case it := <-streams[i]:
			if it.done {
				heads[i].live = false
				return it.err
			}
			heads[i] = head{hit: it.hit, live: true}
			return nil
		case <-ctx2.Done():
			heads[i].live = false
			return ctx2.Err()
		}
	}
	for i := range heads {
		if err := fill(i); err != nil {
			return err
		}
	}
	for {
		best := -1
		for i := range heads {
			if !heads[i].live {
				continue
			}
			if best < 0 || less(heads[i].hit, heads[best].hit) {
				best = i
			}
		}
		if best < 0 {
			return nil
		}
		if !fn(heads[best].hit) {
			return nil
		}
		if err := fill(best); err != nil {
			return err
		}
	}
}

// streamShard runs one shard and forwards its emission as a (cost, doc,
// root)-ascending stream. Schema-driven shards buffer and root-sort each
// equal-cost tier (the engine emits tiers in plan order); direct shards
// are already (cost, root)-sorted and forward as-is. It always terminates
// the stream with a done marker.
func streamShard(ctx context.Context, sh *Shard, x *lang.Expanded, cfg Config, job streamJob, m *exec.Metrics, out chan<- streamItem) {
	send := func(it streamItem) bool {
		select {
		case out <- it:
			return true
		case <-ctx.Done():
			return false
		}
	}
	if job.resolve {
		if decideShard(sh, x, job.n, cfg, m) {
			err := searchShardDirect(ctx, sh, x, job.n, m, func(h Hit) bool {
				if job.bound != nil && h.Cost > job.bound() {
					// Delivery is cost-ascending and the bound monotone
					// non-increasing: every later hit is cut too.
					return false
				}
				return send(streamItem{hit: h})
			})
			if errors.Is(err, context.Canceled) && ctx.Err() != nil {
				err = nil
			}
			send(streamItem{done: true, err: err})
			return
		}
	}
	var tier []Hit
	tierCost := cost.Cost(0)
	flush := func() bool {
		sort.Slice(tier, func(i, j int) bool { return tier[i].Root < tier[j].Root })
		for _, h := range tier {
			if !send(streamItem{hit: h}) {
				return false
			}
		}
		tier = tier[:0]
		return true
	}
	// Mirror searchShardSchema's first k: plan roughly the requested n up
	// front so an external bound can engage early; plain streaming (no n)
	// starts small and grows.
	eng := exec.New(sh.be.Schema(), sh.be, exec.Config{
		N:        0,
		InitialK: max(job.n, 8),
		Metrics:  m,
		Bound:    job.bound,
	})
	err := eng.Run(ctx, x, func(it exec.Item) bool {
		doc, ok := sh.docOf(it.Root)
		if !ok {
			return true
		}
		if len(tier) > 0 && it.Cost != tierCost {
			if !flush() {
				return false
			}
		}
		tierCost = it.Cost
		tier = append(tier, Hit{Doc: doc, Root: it.Root, Cost: it.Cost})
		return true
	})
	if err == nil {
		if !flush() {
			err = ctx.Err()
		}
	}
	if errors.Is(err, context.Canceled) && ctx.Err() != nil {
		err = nil // the merger stopped us; not a shard failure
	}
	send(streamItem{done: true, err: err})
}
