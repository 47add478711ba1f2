package approxql

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"approxql/internal/corpus"
)

// This file is the public surface of distributed shard serving: a Corpus
// opened on a subset of a bundle's shards (OpenOptions.Shards) streams its
// part of a query through ServeShard, and a Cluster gathers such nodes —
// reached over HTTP or served in-process — into one exact global ranking.
// The wire protocol and soundness argument live in docs/CLUSTER.md.

// ShardHit is one hit of a shard-node stream or a cluster gather: the
// ranked Hit plus the presentation fields resolved by the document's
// owning node (a gatherer holds no document data of its own).
type ShardHit struct {
	Hit
	// DocName is the document's external name; Path the label-type path
	// of the matching root; Subtree its rendering, when requested.
	DocName string
	Path    string
	Subtree string
}

// ServeShard streams this corpus's hits for a query in ascending (cost,
// doc, root) order, calling fn for each until fn returns false. It is the
// shard-node primitive of a cluster: the per-shard strategy resolves like
// Search (Auto by default, WithStrategy forces one), and bound — when
// non-nil — is an external cost cutoff that must be monotone
// non-increasing, returning Inf while unknown; hits whose cost strictly
// exceeds it are withheld, equal-cost hits always delivered (the
// gatherer's tie-exactness depends on that). n bounds each direct shard's
// per-shard evaluation (n <= 0: all results); render attaches
// pretty-printed subtrees.
func (c *Corpus) ServeShard(ctx context.Context, query string, n int, bound func() Cost, render bool, fn func(ShardHit) bool, opts ...QueryOption) error {
	qc := queryOptions(opts)
	x, err := parseExpand(query, &qc)
	if err != nil {
		return err
	}
	strategy := qc.strategy
	if strategy != Auto && strategy != Direct && strategy != SchemaDriven {
		return fmt.Errorf("approxql: unknown strategy %d", strategy)
	}
	return c.c.ServeStream(ctx, x, n, bound, qc.corpusConfig(strategy), func(h corpus.Hit) bool {
		sh := ShardHit{Hit: corpusHit(h)}
		d := c.Doc(h.Doc)
		sh.DocName = d.Name()
		sh.Path = d.Path(h.Root)
		if render {
			sh.Subtree = d.RenderNode(h.Root)
		}
		return fn(sh)
	})
}

// ClusterOptions tunes NewCluster. The zero value selects the defaults
// noted per field.
type ClusterOptions struct {
	// ConnectTimeout bounds dialing plus response headers per node
	// request (default 2s); ReadTimeout bounds per-line silence on a hit
	// stream (default 30s).
	ConnectTimeout time.Duration
	ReadTimeout    time.Duration
	// Retries bounds re-issues of a node query that failed before
	// delivering any hit (0 = default 2, negative = never retry);
	// RetryBackoff is the initial delay, doubling per attempt (default
	// 100ms). Attempts that already delivered hits are never retried —
	// the gather heap would double-count.
	Retries      int
	RetryBackoff time.Duration
	// FailClosed fails a whole query when any node fails; the default
	// fails open, returning the surviving nodes' merged hits flagged
	// Partial with per-node error detail.
	FailClosed bool
}

// NodeError is the failure a fail-closed cluster search returns, naming
// the node that broke the query. Unwrap yields the underlying error.
type NodeError = corpus.NodeError

// Cluster is a gatherer over shard nodes: axqlserve processes in
// shard-node mode (reached by base URL) and optionally this process's own
// corpus. Every node must serve disjoint shard subsets of one corpus
// bundle under one cost model — the shared global DocID space is what
// makes the merged (cost, doc, root) ranking exact and bit-identical to a
// single-process search. Safe for concurrent use.
type Cluster struct {
	cl *corpus.Cluster
	// nonce makes this gatherer's qids globally unique: shard nodes key
	// their in-flight bound registries by qid alone, so two gatherers
	// sharing nodes must never collide or one's /shard/bound updates
	// would tighten the other's cutoff and silently drop valid hits.
	nonce string
	qid   atomic.Uint64
}

// NewCluster assembles a gatherer over the shard nodes at nodeURLs
// (scheme://host:port each). local, when non-nil, adds this process's own
// corpus — a subset of the same bundle — as one more node.
func NewCluster(nodeURLs []string, local *Corpus, opts *ClusterOptions) (*Cluster, error) {
	var o ClusterOptions
	if opts != nil {
		o = *opts
	}
	var nodes []corpus.Node
	if local != nil {
		nodes = append(nodes, corpus.NewLocalShards(local.c, corpus.Config{}))
	}
	rcfg := corpus.RemoteShardConfig{
		ConnectTimeout: o.ConnectTimeout,
		ReadTimeout:    o.ReadTimeout,
		Retries:        o.Retries,
		Backoff:        o.RetryBackoff,
	}
	for _, u := range nodeURLs {
		u = strings.TrimSpace(u)
		if u == "" {
			continue
		}
		nodes = append(nodes, corpus.NewRemoteShard(u, rcfg))
	}
	if len(nodes) == 0 {
		return nil, errors.New("approxql: cluster needs at least one node")
	}
	var nb [8]byte
	if _, err := rand.Read(nb[:]); err != nil {
		return nil, fmt.Errorf("approxql: cluster qid nonce: %w", err)
	}
	return &Cluster{
		cl:    corpus.NewCluster(nodes, corpus.ClusterConfig{FailClosed: o.FailClosed}),
		nonce: hex.EncodeToString(nb[:]),
	}, nil
}

// NodeStatus details one node's part of a cluster search.
type NodeStatus struct {
	// Node is the node's base URL ("local" for the in-process node); Err
	// its failure, when it had one.
	Node string
	Err  string
	// LatencyMS spans the node's whole stream, first byte to done line.
	LatencyMS float64
	// Hits counts hits the node delivered into the merge; Stopped
	// reports the gatherer cut it short via the cost bound; Retries and
	// BoundPushes count wire-level re-issues and mid-stream bound
	// updates.
	Hits        int
	Stopped     bool
	Retries     int
	BoundPushes int
}

// ClusterResult is one cluster search's outcome.
type ClusterResult struct {
	// Hits is the merged global ranking, ascending (cost, doc, root).
	Hits []ShardHit
	// Partial reports a degraded fail-open gather: at least one node
	// failed and its documents are missing from the ranking.
	Partial bool
	// Nodes has one entry per cluster node, failures included.
	Nodes []NodeStatus
}

// Search gathers the best n hits for a query across the cluster; see
// SearchContext.
func (cl *Cluster) Search(query string, n int, opts ...QueryOption) (ClusterResult, error) {
	return cl.SearchContext(context.Background(), query, n, false, opts...)
}

// SearchContext fans the query over every node and merges the cost-ordered
// streams into the global best n (n <= 0: all hits), pushing the current
// n-th cost to in-flight nodes so remote shards stop early exactly like
// in-process ones. render asks nodes to attach rendered subtrees. It
// accepts the same options as Corpus.SearchContext; WithMetrics aggregates
// the planner and bound counters reported by the nodes.
func (cl *Cluster) SearchContext(ctx context.Context, query string, n int, render bool, opts ...QueryOption) (ClusterResult, error) {
	qc := queryOptions(opts)
	x, err := parseExpand(query, &qc)
	if err != nil {
		return ClusterResult{}, err
	}
	strategy := qc.strategy
	if strategy != Auto && strategy != Direct && strategy != SchemaDriven {
		return ClusterResult{}, fmt.Errorf("approxql: unknown strategy %d", strategy)
	}
	cq := corpus.ClusterQuery{
		ID:       fmt.Sprintf("%s.q%d", cl.nonce, cl.qid.Add(1)),
		Query:    query,
		X:        x,
		N:        n,
		Strategy: strategy.String(),
		Render:   render,
	}
	res, err := cl.cl.Search(ctx, cq, qc.metrics)
	out := ClusterResult{Partial: res.Partial}
	for _, h := range res.Hits {
		out.Hits = append(out.Hits, ShardHit{
			Hit:     Hit{Doc: h.Doc, Result: Result{Root: h.Root, Cost: h.Cost}},
			DocName: h.DocName,
			Path:    h.Path,
			Subtree: h.Subtree,
		})
	}
	for _, st := range res.Nodes {
		out.Nodes = append(out.Nodes, NodeStatus{
			Node:        st.Node,
			Err:         st.Err,
			LatencyMS:   st.LatencyMS,
			Hits:        st.Hits,
			Stopped:     st.Stopped,
			Retries:     st.Retries,
			BoundPushes: st.BoundPushes,
		})
	}
	return out, err
}

// ClusterNodeHealth is one node's health-probe outcome.
type ClusterNodeHealth struct {
	Node string
	// Err is the probe failure for an unreachable node; the stats fields
	// are zero then.
	Err       string
	Docs      int
	Shards    int
	TreeNodes int
}

// Health probes every node's /shard/stats concurrently with the given
// per-probe timeout (0 = 2s), one entry per node.
func (cl *Cluster) Health(ctx context.Context, timeout time.Duration) []ClusterNodeHealth {
	probes := cl.cl.Health(ctx, timeout)
	out := make([]ClusterNodeHealth, len(probes))
	for i, p := range probes {
		out[i] = ClusterNodeHealth{
			Node:      p.Node,
			Err:       p.Err,
			Docs:      p.Docs,
			Shards:    p.Shards,
			TreeNodes: p.Nodes,
		}
	}
	return out
}
