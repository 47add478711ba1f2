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
	"approxql/internal/kbest"
)

// This file is the public surface of distributed shard serving: a Corpus
// opened on a subset of a bundle's shards (OpenOptions.Shards) answers its
// part of a query through ServeShard, and a Cluster gathers such nodes —
// reached over HTTP or served in-process — into one exact global ranking.
// The wire protocol and soundness argument live in docs/CLUSTER.md.

// ShardHit is one hit of a shard-node stream or a cluster gather: the
// ranked Hit plus the presentation fields resolved by the document's
// owning node (a gatherer holds no document data of its own). DocName is
// the document's external name; Path the label-type path of the matching
// root; Subtree its rendering, when requested.
type ShardHit = corpus.ClusterHit

// Present resolves a hit on one of this corpus's own documents into a
// ShardHit, rendering the subtree when render is set. ServeShard and the
// in-process node of a Cluster present their hits the same way.
func (c *Corpus) Present(h Hit, render bool) ShardHit { return c.c.Present(h, render) }

// ServeShard is the shard-node primitive of a cluster: it runs Search for
// the corpus's best n hits (n <= 0: all) and calls fn for each, in
// ascending (cost, doc, root) order, until fn returns false. n bounds the
// node's answer: a gatherer's global top n holds at most n of this node's
// hits, and those are its best n. The strategy resolves like Search (Auto
// by default, WithStrategy forces one). bound, when non-nil, is an
// external cost cutoff that must be monotone non-increasing, returning Inf
// while unknown; schema-driven shards stop at it, and hits whose cost
// strictly exceeds it are withheld, equal-cost hits always delivered (the
// gatherer's tie-exactness depends on that). render attaches
// pretty-printed subtrees.
func (c *Corpus) ServeShard(ctx context.Context, query string, n int, bound func() Cost, render bool, fn func(ShardHit) bool, opts ...QueryOption) error {
	hits, err := search(ctx, c.c, query, n, bound, opts, func(h Hit, _ *kbest.Entry) ShardHit {
		return c.c.Present(h, render)
	})
	if err != nil {
		return err
	}
	for _, h := range hits {
		if (bound != nil && h.Cost > bound()) || !fn(h) {
			break
		}
	}
	return nil
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

// NodeStatus details one node's part of a cluster search: its base URL
// ("local" for the in-process node), its failure when it had one, the
// latency of its whole stream, the hits it delivered into the merge,
// whether the gatherer cut it short via the cost bound, and its wire-level
// retries and mid-stream bound pushes.
type NodeStatus = corpus.NodeStatus

// ClusterResult is one cluster search's outcome: the merged global
// ranking, ascending (cost, doc, root); Partial for a degraded fail-open
// gather, where at least one node failed and its documents are missing;
// and one NodeStatus per cluster node, failures included.
type ClusterResult = corpus.GatherResult

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
	return cl.cl.Search(ctx, cq, qc.metrics)
}

// ClusterNodeHealth is one node's health-probe outcome: its document,
// shard, and tree-node counts, or, for an unreachable node, the probe
// failure in Err with the counts zero.
type ClusterNodeHealth = corpus.NodeHealth

// Health probes every node's /shard/stats concurrently with the given
// per-probe timeout (0 = 2s), one entry per node.
func (cl *Cluster) Health(ctx context.Context, timeout time.Duration) []ClusterNodeHealth {
	return cl.cl.Health(ctx, timeout)
}
