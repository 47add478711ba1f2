package corpus

import (
	"context"
	"errors"
	"slices"
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
// far the costs ran.
//
// A sole active shard streams inline on the caller's goroutine, its
// counters written straight into cfg.Metrics.
func (c *Corpus) Stream(ctx context.Context, x *lang.Expanded, cfg Config, fn func(Hit) bool) error {
	active, pruned := c.filterShards(x)
	if len(active) == 1 {
		if cfg.Metrics != nil {
			cfg.Metrics.Shards++
			cfg.Metrics.ShardsPruned += pruned
		}
		return streamShard(ctx, active[0], x, cfg.Metrics, fn)
	}
	merged := &exec.Metrics{}
	merged.Shards = len(active)
	merged.ShardsPruned = pruned
	if cfg.Metrics != nil {
		defer cfg.Metrics.Merge(merged)
	}
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
			send := func(it streamItem) bool {
				select {
				case streams[i] <- it:
					return true
				case <-ctx2.Done():
					return false
				}
			}
			err := streamShard(ctx2, sh, x, &metrics[i], func(h Hit) bool {
				return send(streamItem{hit: h})
			})
			if errors.Is(err, context.Canceled) && ctx2.Err() != nil {
				err = nil // the merger stopped us; not a shard failure
			}
			send(streamItem{done: true, err: err})
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

// streamShard runs one shard schema-driven and unbounded, passing its hits
// to send in (cost, doc, root)-ascending order until send returns false; a
// stop by send returns nil. It returns the shard engine's error. Each
// equal-cost tier is sent as soon as the engine has finished it, buffered
// and root-sorted (the engine emits a tier in plan order); a stop ends the
// engine after the current tier.
func streamShard(ctx context.Context, sh *Shard, x *lang.Expanded, m *exec.Metrics, send func(Hit) bool) error {
	var tier []Hit
	tierCost := cost.Cost(0)
	stopped := false
	flush := func() bool {
		slices.SortFunc(tier, compare)
		for _, h := range tier {
			if !send(h) {
				stopped = true
				return false
			}
		}
		tier = tier[:0]
		return true
	}
	eng := exec.New(sh.be.Schema(), sh.be, exec.Config{Metrics: m})
	err := eng.Run(ctx, x, func(it exec.Item) bool {
		doc, ok := sh.docOf(it.Root)
		if !ok {
			return true
		}
		if len(tier) > 0 && it.Cost != tierCost && !flush() {
			return false
		}
		tierCost = it.Cost
		tier = append(tier, Hit{Doc: doc, Root: it.Root, Cost: it.Cost})
		return true
	})
	if err != nil || stopped {
		return err
	}
	flush()
	return nil
}
