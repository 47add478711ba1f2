package corpus

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"approxql/internal/cost"
	"approxql/internal/exec"
	"approxql/internal/lang"
	"approxql/internal/plan"
)

// This file is the gatherer side of a shard cluster: a set of Nodes — each
// serving disjoint shards of one corpus bundle — fanned out over and merged
// through the same top-n heap as an in-process Search. The merge stays
// exact because every node streams its hits in ascending (cost, doc, root)
// order: the heap's Offer returning false is a sound early-stop signal for
// the node, and the heap's current n-th cost is pushed to in-flight nodes
// as the monotone non-increasing cutoff their engines already understand.
//
// All nodes must serve the same bundle (same global document table, same
// cost model); DocIDs are the cross-node identity hits merge under.

// ClusterQuery is one scatter-gather request as the gatherer fans it out:
// the query string for the wire, the parsed form for in-process nodes, and
// the shared evaluation parameters.
type ClusterQuery struct {
	// ID correlates mid-stream bound pushes with the in-flight query on
	// each node; the gatherer picks it unique per search.
	ID    string
	Query string
	// X is the expanded query for local nodes; remote nodes re-parse
	// Query under their own (identical) model and may leave it nil.
	X *lang.Expanded
	// N bounds the global ranking (<= 0: all hits). Strategy is "auto",
	// "direct", or "schema"; Render asks nodes to attach rendered
	// subtrees.
	N        int
	Strategy string
	Render   bool
}

// ClusterHit is one gathered hit plus the presentation fields only the
// owning node can resolve — the gatherer holds no document data.
type ClusterHit struct {
	Hit
	DocName string
	Path    string
	Subtree string
}

// NodeInfo is what one node driver reports about its part of a search.
type NodeInfo struct {
	// Hits counts the hits the node delivered into the merge; Stopped
	// reports the gatherer cut the node short through the heap's bound.
	Hits    int
	Stopped bool
	// Retries counts re-issued attempts (remote nodes only); BoundPushes
	// counts mid-stream bound updates pushed over the wire.
	Retries     int
	BoundPushes int
	// Planner and bound counters aggregated from the node's shards.
	PlannerDirect int
	PlannerSchema int
	Estimate      int
	BoundSkipped  int
	BoundStops    int
	Shards        int
	ShardsPruned  int
}

// NodeStatus is NodeInfo plus identity, latency, and failure detail, as
// surfaced in gatherer responses and metrics.
type NodeStatus struct {
	Node      string
	Err       string
	LatencyMS float64
	NodeInfo
}

// NodeStats is a node's corpus summary, as probed for health reporting.
type NodeStats struct {
	Docs   int
	Shards int
	Nodes  int
}

// NodeError wraps a node failure so fail-closed gatherers can surface
// which node broke the query.
type NodeError struct {
	Node string
	Err  error
}

func (e *NodeError) Error() string { return fmt.Sprintf("cluster node %s: %v", e.Node, e.Err) }
func (e *NodeError) Unwrap() error { return e.Err }

// Node is one scatter target of a cluster search. LocalShards serves a
// corpus in this process; RemoteShard reaches one over HTTP.
type Node interface {
	// Name identifies the node in statuses, metrics, and errors.
	Name() string
	// Query streams the node's hits into offer in ascending (cost, doc,
	// root) order, watching bw for tightening global bounds; offer
	// returning false stops the node early (not an error). It returns
	// what it can report about the run even on failure.
	Query(ctx context.Context, cq ClusterQuery, offer func(ClusterHit) bool, bw *BoundWatch) (NodeInfo, error)
	// Stats probes the node's corpus summary for health reporting.
	Stats(ctx context.Context) (NodeStats, error)
}

// BoundWatch publishes the gatherer heap's cutoff to the node drivers:
// local nodes read Current from their engines' Bound hooks; remote
// drivers block on Changed and push updates over the wire. Lower only
// ever tightens, so Current is monotone non-increasing — exactly the
// contract exec.Config.Bound requires downstream.
type BoundWatch struct {
	mu  sync.Mutex
	cur cost.Cost
	ch  chan struct{}
}

// NewBoundWatch returns a watch with no bound yet (cost.Inf).
func NewBoundWatch() *BoundWatch {
	return &BoundWatch{cur: cost.Inf, ch: make(chan struct{})}
}

// Current returns the current cutoff.
func (b *BoundWatch) Current() cost.Cost {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.cur
}

// Lower tightens the cutoff; values not strictly below the current one
// are ignored.
func (b *BoundWatch) Lower(c cost.Cost) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if c >= b.cur {
		return
	}
	b.cur = c
	close(b.ch)
	b.ch = make(chan struct{})
}

// Changed returns a channel closed at the next tightening. Take the
// channel before reading Current to avoid missing an update between the
// two.
func (b *BoundWatch) Changed() <-chan struct{} {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.ch
}

// ClusterConfig tunes a gatherer's failure semantics.
type ClusterConfig struct {
	// FailClosed makes any node failure fail the whole query with a
	// *NodeError. The default fails open: the surviving nodes' merged
	// hits are returned flagged Partial, with per-node error detail.
	FailClosed bool
}

// Cluster fans queries over its nodes and merges their cost-ordered
// streams. Safe for concurrent use.
type Cluster struct {
	nodes []Node
	cfg   ClusterConfig
}

// NewCluster assembles a gatherer over the given nodes.
func NewCluster(nodes []Node, cfg ClusterConfig) *Cluster {
	return &Cluster{nodes: nodes, cfg: cfg}
}

// Nodes exposes the node list (read-only) for health probing.
func (cl *Cluster) Nodes() []Node { return cl.nodes }

// GatherResult is one cluster search's outcome: the merged ranking, the
// degraded-mode flag, and per-node detail.
type GatherResult struct {
	Hits    []ClusterHit
	Partial bool
	Nodes   []NodeStatus
}

// Search fans cq over every node and merges the streams through a global
// top-n heap, pushing the heap's tightening bound to in-flight nodes. m,
// when non-nil, accumulates the planner and bound counters aggregated from
// the per-node reports. Fail-open node failures yield Partial results;
// fail-closed ones a *NodeError.
func (cl *Cluster) Search(ctx context.Context, cq ClusterQuery, m *exec.Metrics) (GatherResult, error) {
	heap := newTopN[ClusterHit](cq.N)
	bw := NewBoundWatch()
	offer := func(h ClusterHit) bool {
		ok := heap.Offer(h)
		// Publishing after every offer keeps the remote cutoff as tight
		// as the in-process one; Lower ignores non-improvements.
		bw.Lower(heap.Bound())
		return ok
	}

	ctx2, cancel := context.WithCancel(ctx)
	defer cancel()
	statuses := make([]NodeStatus, len(cl.nodes))
	var wg sync.WaitGroup
	for i, nd := range cl.nodes {
		wg.Add(1)
		go func(i int, nd Node) {
			defer wg.Done()
			start := time.Now()
			info, err := nd.Query(ctx2, cq, offer, bw)
			st := NodeStatus{Node: nd.Name(), NodeInfo: info}
			st.LatencyMS = float64(time.Since(start).Microseconds()) / 1000
			if err != nil && !(errors.Is(err, context.Canceled) && ctx2.Err() != nil) {
				st.Err = err.Error()
				if cl.cfg.FailClosed {
					// Stop the surviving nodes: their partial work
					// cannot be served anyway.
					cancel()
				}
			}
			statuses[i] = st
		}(i, nd)
	}
	wg.Wait()

	res := GatherResult{Nodes: statuses}
	agg := exec.Metrics{}
	direct, schema := 0, 0
	for _, st := range statuses {
		agg.PlannerDirect += st.PlannerDirect
		agg.PlannerSchema += st.PlannerSchema
		agg.PlannerEstimate += st.Estimate
		agg.BoundSkipped += st.BoundSkipped
		agg.BoundStops += st.BoundStops
		agg.Shards += st.Shards
		agg.ShardsPruned += st.ShardsPruned
		agg.ResultsEmitted += st.Hits
		direct += st.PlannerDirect
		schema += st.PlannerSchema
	}
	if direct+schema > 0 {
		if direct >= schema {
			agg.PlannerStrategy = plan.Direct.String()
		} else {
			agg.PlannerStrategy = plan.SchemaDriven.String()
		}
	}
	if m != nil {
		m.Merge(&agg)
	}

	for _, st := range statuses {
		if st.Err == "" {
			continue
		}
		if cl.cfg.FailClosed {
			return res, &NodeError{Node: st.Node, Err: errors.New(st.Err)}
		}
		res.Partial = true
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	res.Hits = heap.Sorted()
	return res, nil
}

// NodeHealth is one node's probe outcome: its stats, or the error that
// made it unreachable.
type NodeHealth struct {
	Node string
	Err  string
	NodeStats
}

// Health probes every node's Stats concurrently with the given per-probe
// timeout, returning one entry per node (Err set for unreachable ones).
func (cl *Cluster) Health(ctx context.Context, timeout time.Duration) []NodeHealth {
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	out := make([]NodeHealth, len(cl.nodes))
	var wg sync.WaitGroup
	for i, nd := range cl.nodes {
		wg.Add(1)
		go func(i int, nd Node) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, timeout)
			defer cancel()
			st, err := nd.Stats(pctx)
			out[i] = NodeHealth{Node: nd.Name(), NodeStats: st}
			if err != nil {
				out[i].Err = err.Error()
			}
		}(i, nd)
	}
	wg.Wait()
	return out
}

// LocalShards adapts a corpus served in this process as a cluster node —
// a gatherer's own shards, merged through the same interface as remote
// ones. The corpus must be a (subset of the) same bundle the remote nodes
// serve, so its global DocIDs line up with theirs.
type LocalShards struct {
	c   *Corpus
	cfg Config
}

// NewLocalShards wraps c as a node. cfg carries the evaluation knobs (the
// shard-worker count); its strategy fields are overridden per query.
func NewLocalShards(c *Corpus, cfg Config) *LocalShards {
	return &LocalShards{c: c, cfg: cfg}
}

// Name implements Node.
func (ln *LocalShards) Name() string { return "local" }

// Stats implements Node from the corpus's own summaries.
func (ln *LocalShards) Stats(context.Context) (NodeStats, error) {
	st := NodeStats{Docs: ln.c.NumOwnedDocs(), Shards: ln.c.NumShards()}
	for _, sh := range ln.c.Shards() {
		st.Nodes += sh.Summary().Nodes
	}
	return st, nil
}

// Query implements Node over ServeStream, reading the shared bound
// directly — no wire hop, no push latency.
func (ln *LocalShards) Query(ctx context.Context, cq ClusterQuery, offer func(ClusterHit) bool, bw *BoundWatch) (NodeInfo, error) {
	if cq.X == nil {
		return NodeInfo{}, errors.New("corpus: local cluster node needs the parsed query")
	}
	cfg := ln.cfg
	cfg.Auto = cq.Strategy == "" || cq.Strategy == "auto"
	cfg.Direct = cq.Strategy == "direct"
	var m exec.Metrics
	cfg.Metrics = &m
	var info NodeInfo
	err := ln.c.ServeStream(ctx, cq.X, cq.N, bw.Current, cfg, func(h Hit) bool {
		ch := ClusterHit{Hit: h, DocName: ln.c.DocName(h.Doc)}
		tree := ln.c.ShardOf(h.Doc).Backend().Tree()
		ch.Path = tree.LabelTypePath(h.Root)
		if cq.Render {
			ch.Subtree = tree.RenderString(h.Root)
		}
		if !offer(ch) {
			info.Stopped = true
			return false
		}
		info.Hits++
		return true
	})
	info.PlannerDirect = m.PlannerDirect
	info.PlannerSchema = m.PlannerSchema
	info.Estimate = m.PlannerEstimate
	info.BoundSkipped = m.BoundSkipped
	info.BoundStops = m.BoundStops
	info.Shards = m.Shards
	info.ShardsPruned = m.ShardsPruned
	return info, err
}
