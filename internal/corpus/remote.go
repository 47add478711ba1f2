package corpus

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"approxql/internal/cost"
	"approxql/internal/xmltree"
)

// The shard-node wire protocol (docs/CLUSTER.md). A gatherer POSTs a
// ShardQueryRequest to /shard/query and reads back one JSON object per
// line (application/x-ndjson): the node's best n hit lines in strictly
// ascending (cost, doc, root) order, terminated by one summary line with
// "done": true. Mid-stream the gatherer POSTs tightening cost bounds to
// /shard/bound, correlated by qid; /shard/stats serves the node's corpus
// summary. Costs travel as int64 with -1 for "no bound" (cost 0 is a
// valid bound: an exact match).

// ShardQueryRequest is the POST /shard/query body.
type ShardQueryRequest struct {
	QID      string `json:"qid,omitempty"`
	Query    string `json:"query"`
	N        int    `json:"n"`
	Strategy string `json:"strategy,omitempty"`
	Render   bool   `json:"render,omitempty"`
	// Bound is the gatherer's cutoff at issue time; -1 means none.
	Bound int64 `json:"bound"`
	// TimeoutMS propagates the gatherer's remaining deadline budget; 0
	// leaves the node's own default in force.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// ShardBoundRequest is the POST /shard/bound body: a mid-stream
// tightening of the cutoff for the in-flight query qid.
type ShardBoundRequest struct {
	QID   string `json:"qid"`
	Bound int64  `json:"bound"`
}

// ShardHitLine is one hit line of a /shard/query response stream.
type ShardHitLine struct {
	Doc     DocID          `json:"doc"`
	Root    xmltree.NodeID `json:"root"`
	Cost    int64          `json:"cost"`
	DocName string         `json:"doc_name,omitempty"`
	Path    string         `json:"path,omitempty"`
	Subtree string         `json:"subtree,omitempty"`
}

// ShardDoneLine is the terminal summary line of a /shard/query stream. A
// mid-stream failure surfaces here (Error non-empty): the HTTP status was
// already committed when streaming began.
type ShardDoneLine struct {
	Done  bool   `json:"done"`
	Hits  int    `json:"hits"`
	Error string `json:"error,omitempty"`
	NodeCounters
}

// shardStreamLine is the read-side union of hit and done lines.
type shardStreamLine struct {
	ShardHitLine
	ShardDoneLine
}

// ShardStatsResponse is the GET /shard/stats body.
type ShardStatsResponse struct {
	Docs   int `json:"docs"`
	Shards int `json:"shards"`
	Nodes  int `json:"nodes"`
}

// boundWire encodes a cost for the wire (-1 = no bound yet).
func boundWire(c cost.Cost) int64 {
	if c >= cost.Inf {
		return -1
	}
	return int64(c)
}

// BoundFromWire decodes a wire bound into the engine convention.
func BoundFromWire(v int64) cost.Cost {
	if v < 0 {
		return cost.Inf
	}
	return cost.Cost(v)
}

// RemoteShardConfig tunes one remote node client. The zero value selects
// the defaults noted per field.
type RemoteShardConfig struct {
	// ConnectTimeout bounds dialing plus response headers (default 2s) —
	// nodes commit the status line before evaluating, so a healthy node
	// answers headers fast even on slow queries.
	ConnectTimeout time.Duration
	// ReadTimeout is the per-line idle timeout on the hit stream
	// (default 30s): the watchdog resets on every line, so it bounds
	// silence, not total stream time.
	ReadTimeout time.Duration
	// Retries bounds re-issues of a query whose attempt failed before
	// delivering any hit (default 2); delivered hits make a retry unsafe
	// — the gatherer's heap would double-count them. Backoff is the
	// initial retry delay, doubling per attempt (default 100ms).
	Retries int
	Backoff time.Duration
}

func (c RemoteShardConfig) withDefaults() RemoteShardConfig {
	if c.ConnectTimeout <= 0 {
		c.ConnectTimeout = 2 * time.Second
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 30 * time.Second
	}
	if c.Retries == 0 {
		c.Retries = 2
	}
	if c.Retries < 0 {
		c.Retries = 0
	}
	if c.Backoff <= 0 {
		c.Backoff = 100 * time.Millisecond
	}
	return c
}

// RemoteShard is the Node driver for one axqlserve shard node reached
// over HTTP. Safe for concurrent use.
type RemoteShard struct {
	base string
	cfg  RemoteShardConfig
	hc   *http.Client
}

// NewRemoteShard returns a driver for the node at base (scheme://host:port,
// no trailing slash).
func NewRemoteShard(base string, cfg RemoteShardConfig) *RemoteShard {
	cfg = cfg.withDefaults()
	tr := &http.Transport{
		DialContext:           (&net.Dialer{Timeout: cfg.ConnectTimeout}).DialContext,
		ResponseHeaderTimeout: cfg.ConnectTimeout,
		MaxIdleConns:          16,
		MaxIdleConnsPerHost:   16,
		IdleConnTimeout:       90 * time.Second,
	}
	return &RemoteShard{
		base: strings.TrimRight(base, "/"),
		cfg:  cfg,
		hc:   &http.Client{Transport: tr},
	}
}

// Name implements Node.
func (r *RemoteShard) Name() string { return r.base }

// Stats implements Node via GET /shard/stats.
func (r *RemoteShard) Stats(ctx context.Context) (NodeStats, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.base+"/shard/stats", nil)
	if err != nil {
		return NodeStats{}, err
	}
	resp, err := r.hc.Do(req)
	if err != nil {
		return NodeStats{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return NodeStats{}, fmt.Errorf("%s: %s", r.base, resp.Status)
	}
	var sr ShardStatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return NodeStats{}, err
	}
	return NodeStats(sr), nil
}

// Query implements Node: it POSTs the query, streams hit lines into
// offer, pushes tightening bounds mid-stream, and retries failed attempts
// only while no hit has been delivered (re-delivery would double-count in
// the gatherer's heap — the idempotent-retry rule).
func (r *RemoteShard) Query(ctx context.Context, cq ClusterQuery, offer func(ClusterHit) bool, bw *BoundWatch) (NodeInfo, error) {
	var info NodeInfo
	backoff := r.cfg.Backoff
	for attempt := 0; ; attempt++ {
		err := r.attempt(ctx, cq, attempt, offer, bw, &info)
		if err == nil {
			return info, nil
		}
		if info.Hits > 0 || attempt >= r.cfg.Retries || ctx.Err() != nil {
			return info, err
		}
		info.Retries++
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return info, ctx.Err()
		}
		backoff *= 2
	}
}

// attempt runs one wire exchange. It accumulates into info; a non-nil
// error with info.Hits still zero is retryable.
func (r *RemoteShard) attempt(ctx context.Context, cq ClusterQuery, attempt int, offer func(ClusterHit) bool, bw *BoundWatch, info *NodeInfo) error {
	qid := fmt.Sprintf("%s.%d", cq.ID, attempt)
	body := ShardQueryRequest{
		QID:      qid,
		Query:    cq.Query,
		N:        cq.N,
		Strategy: cq.Strategy,
		Render:   cq.Render,
		Bound:    boundWire(bw.Current()),
	}
	if dl, ok := ctx.Deadline(); ok {
		if ms := time.Until(dl).Milliseconds(); ms > 0 {
			body.TimeoutMS = ms
		}
	}
	raw, err := json.Marshal(body)
	if err != nil {
		return err
	}

	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodPost, r.base+"/shard/query", bytes.NewReader(raw))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("%s: %s: %s", r.base, resp.Status, strings.TrimSpace(string(msg)))
	}

	// Push tightening bounds for this attempt until the stream ends.
	var pushes atomic.Int64
	pusherDone := make(chan struct{})
	go func() {
		defer close(pusherDone)
		r.pushBounds(actx, qid, bw, &pushes)
	}()
	defer func() {
		cancel()
		<-pusherDone
		info.BoundPushes += int(pushes.Load())
	}()

	// The watchdog bounds per-line silence: a node that stops producing
	// without closing the stream is cut off instead of hanging the
	// gather.
	watchdog := time.AfterFunc(r.cfg.ReadTimeout, cancel)
	defer watchdog.Stop()

	err = readShardStream(resp.Body, func() { watchdog.Reset(r.cfg.ReadTimeout) }, offer, info)
	if err != nil && ctx.Err() != nil {
		// Watchdog expiry cancels actx, not ctx; a dead parent context
		// (gather cancelled) is not this node's failure to report.
		return ctx.Err()
	}
	if err != nil {
		return fmt.Errorf("%s: %w", r.base, err)
	}
	return nil
}

// readShardStream decodes a /shard/query response body into offer until
// the done line, whose counters it stores in info, or until offer returns
// false, which hangs up on the node (info.Stopped) — the remote analog of
// the in-process early stop. tick runs for every line read. Hit lines
// must ascend strictly in (cost, doc, root): the gather's early stop and
// its tie-exactness rest on that order, so a reordered or repeated hit is
// an error, as are a malformed line, a failure the done line reports, and
// a body that ends without a done line.
func readShardStream(body io.Reader, tick func(), offer func(ClusterHit) bool, info *NodeInfo) error {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	var prev Hit
	seen := false
	for sc.Scan() {
		tick()
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		// A hit line's numbers start negative, which no valid line holds,
		// so that a missing one shows.
		l := shardStreamLine{ShardHitLine: ShardHitLine{Doc: -1, Root: -1, Cost: -1}}
		if err := json.Unmarshal(line, &l); err != nil {
			return fmt.Errorf("malformed stream line: %w", err)
		}
		if l.Done {
			if l.Error != "" {
				return errors.New(l.Error)
			}
			info.NodeCounters = l.NodeCounters
			return nil
		}
		if l.Doc < 0 || l.Root < 0 || l.ShardHitLine.Cost < 0 {
			return fmt.Errorf("malformed hit line %.200q: doc, root and cost must be present and non-negative", line)
		}
		h := ClusterHit{
			Hit:     Hit{Doc: l.Doc, Root: l.Root, Cost: cost.Cost(l.ShardHitLine.Cost)},
			DocName: l.DocName,
			Path:    l.Path,
			Subtree: l.Subtree,
		}
		if seen && !less(prev, h.Hit) {
			return fmt.Errorf("hit %+v does not follow %+v in (cost, doc, root) order", h.Hit, prev)
		}
		prev, seen = h.Hit, true
		info.Hits++
		if !offer(h) {
			info.Stopped = true
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("stream read: %w", err)
	}
	return errors.New("stream truncated before done line")
}

// pushBounds forwards every tightening of bw to the node, coalesced (one
// POST per observed change, best effort — a lost push only costs wasted
// node work, never correctness).
func (r *RemoteShard) pushBounds(ctx context.Context, qid string, bw *BoundWatch, pushes *atomic.Int64) {
	last := cost.Inf
	for {
		ch := bw.Changed()
		cur := bw.Current()
		if cur < last {
			last = cur
			if r.pushBound(ctx, qid, cur) {
				pushes.Add(1)
			}
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return
		}
	}
}

// pushBound POSTs one bound update.
func (r *RemoteShard) pushBound(ctx context.Context, qid string, c cost.Cost) bool {
	raw, err := json.Marshal(ShardBoundRequest{QID: qid, Bound: boundWire(c)})
	if err != nil {
		return false
	}
	pctx, cancel := context.WithTimeout(ctx, r.cfg.ConnectTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodPost, r.base+"/shard/bound", bytes.NewReader(raw))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.hc.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode < 300
}
