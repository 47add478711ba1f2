package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"approxql"
	"approxql/internal/corpus"
)

// newShardNode serves the catalog fixture as a cluster shard node and
// returns its base URL.
func newShardNode(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	return newTestServer(t, Config{ShardNode: true})
}

// postShardQuery runs one raw wire exchange and decodes the stream.
func postShardQuery(t *testing.T, url string, req corpus.ShardQueryRequest) (*http.Response, []corpus.ShardHitLine, corpus.ShardDoneLine) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/shard/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp, nil, corpus.ShardDoneLine{}
	}
	var hits []corpus.ShardHitLine
	var done corpus.ShardDoneLine
	sawDone := false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if sawDone {
			t.Fatalf("line after done: %s", line)
		}
		var probe struct {
			Done bool `json:"done"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("malformed stream line %q: %v", line, err)
		}
		if probe.Done {
			if err := json.Unmarshal(line, &done); err != nil {
				t.Fatal(err)
			}
			sawDone = true
			continue
		}
		var h corpus.ShardHitLine
		if err := json.Unmarshal(line, &h); err != nil {
			t.Fatal(err)
		}
		hits = append(hits, h)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawDone {
		t.Fatal("stream ended without a done line")
	}
	return resp, hits, done
}

// TestShardQueryStream pins the wire protocol's happy path: ndjson,
// ascending (cost, doc, root) hit lines, one terminal done line carrying
// the hit count and planner counters, presentation fields resolved.
func TestShardQueryStream(t *testing.T) {
	_, ts := newShardNode(t)
	resp, hits, done := postShardQuery(t, ts.URL, corpus.ShardQueryRequest{
		QID: "t.0", Query: `cd[title["concerto"]]`, N: 0, Bound: -1, Render: true,
	})
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}
	if len(hits) == 0 {
		t.Fatal("no hits")
	}
	if done.Error != "" || done.Hits != len(hits) {
		t.Fatalf("done = %+v over %d hit lines", done, len(hits))
	}
	if done.Shards == 0 {
		t.Fatalf("done line carries no shard count: %+v", done)
	}
	for i, h := range hits {
		if i > 0 {
			prev := hits[i-1]
			if h.Cost < prev.Cost || (h.Cost == prev.Cost && (h.Doc < prev.Doc || (h.Doc == prev.Doc && h.Root <= prev.Root))) {
				t.Fatalf("hits out of (cost, doc, root) order at %d: %+v then %+v", i, prev, h)
			}
		}
		if h.Path == "" || h.Subtree == "" {
			t.Fatalf("hit %d misses presentation fields: %+v", i, h)
		}
	}
}

// TestShardQueryHeadersBeforeEvaluation pins the streaming contract the
// gatherer's connect timeout depends on: a shard node commits its 200 and
// content type to the wire before evaluation runs — through the full
// instrumented handler chain, whose statusWriter wrapper must forward
// flushes to the connection (a regression here makes every shard query
// slower than the gatherer's ConnectTimeout fail on a healthy node).
func TestShardQueryHeadersBeforeEvaluation(t *testing.T) {
	s, ts := newShardNode(t)
	release := make(chan struct{})
	var releaseOnce sync.Once
	s.testHookSearch = func() { <-release }
	t.Cleanup(func() { releaseOnce.Do(func() { close(release) }) })

	body, err := json.Marshal(corpus.ShardQueryRequest{
		QID: "t.0", Query: `cd[title["concerto"]]`, N: 0, Bound: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		resp *http.Response
		err  error
	}
	got := make(chan result, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/shard/query", "application/json", bytes.NewReader(body))
		got <- result{resp, err}
	}()

	// http.Post returns once response headers arrive; evaluation is still
	// parked in the hook, so headers reaching the client proves the
	// pre-evaluation flush crossed the instrument() wrapper.
	var r result
	select {
	case r = <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("headers not flushed before evaluation: response blocked behind the search hook")
	}
	if r.err != nil {
		t.Fatal(r.err)
	}
	defer r.resp.Body.Close()
	if r.resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", r.resp.StatusCode)
	}
	if ct := r.resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}

	// Released, the stream must still complete normally: hits then done.
	releaseOnce.Do(func() { close(release) })
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r.resp.Body); err != nil {
		t.Fatal(err)
	}
	var done corpus.ShardDoneLine
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &done); err != nil {
		t.Fatalf("terminal line %q: %v", lines[len(lines)-1], err)
	}
	if !done.Done || done.Error != "" || done.Hits == 0 {
		t.Fatalf("done = %+v, want a clean non-empty stream", done)
	}
}

// TestShardQueryNodeBestN: a node answers with its own best n, not n per
// shard. Each of its two shards holds a match, the costlier one in the
// first document; with n = 1 the node sends exactly one hit line, its best
// under (cost, doc, root).
func TestShardQueryNodeBestN(t *testing.T) {
	cb := approxql.NewCorpusBuilder(approxql.PaperCostModel())
	cb.SetShardSize(1)
	for i, doc := range []string{
		`<catalog><mc><title>Concerto</title></mc></catalog>`,
		`<catalog><cd><title>Concerto</title></cd></catalog>`,
	} {
		if _, err := cb.AddDocumentString(fmt.Sprintf("doc%d", i), doc); err != nil {
			t.Fatal(err)
		}
	}
	c, err := cb.Corpus()
	if err != nil {
		t.Fatal(err)
	}
	const query = `cd[title["concerto"]]`
	all, err := c.Search(query, 0, approxql.WithCostModel(approxql.PaperCostModel()))
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 || all[0].Doc != 1 || all[1].Doc != 0 {
		t.Fatalf("fixture: want one match per shard, doc 1 the cheaper; got %+v", all)
	}

	_, ts := newTestServer(t, Config{ShardNode: true, Corpus: c})
	_, hits, done := postShardQuery(t, ts.URL, corpus.ShardQueryRequest{QID: "t.0", Query: query, N: 1, Bound: -1})
	if done.Error != "" || done.Shards != 2 {
		t.Fatalf("done = %+v, want no error over 2 shards", done)
	}
	if len(hits) != 1 || done.Hits != 1 {
		t.Fatalf("n = 1: %d hit lines (done counts %d), want 1: %+v", len(hits), done.Hits, hits)
	}
	if h := hits[0]; h.Doc != all[0].Doc || h.Root != all[0].Root || h.Cost != int64(all[0].Cost) {
		t.Fatalf("hit %+v, want the node's best %+v", h, all[0])
	}
}

// TestShardQueryBound pins the request-time cutoff: bound 0 delivers
// exactly the exact matches (cost 0 is a valid bound, not "none").
func TestShardQueryBound(t *testing.T) {
	_, ts := newShardNode(t)
	_, all, _ := postShardQuery(t, ts.URL, corpus.ShardQueryRequest{
		QID: "t.0", Query: `cd[title["concerto"]]`, N: 0, Bound: -1,
	})
	_, exact, done := postShardQuery(t, ts.URL, corpus.ShardQueryRequest{
		QID: "t.1", Query: `cd[title["concerto"]]`, N: 0, Bound: 0,
	})
	if done.Error != "" {
		t.Fatalf("bounded query failed: %+v", done)
	}
	if len(exact) == 0 || len(exact) >= len(all) {
		t.Fatalf("bound 0 returned %d of %d hits, want a non-empty strict subset", len(exact), len(all))
	}
	for _, h := range exact {
		if h.Cost != 0 {
			t.Fatalf("bound 0 delivered cost-%d hit %+v", h.Cost, h)
		}
	}
}

// TestShardQueryValidation: protocol errors surface as statuses before the
// stream commits, and the endpoints only exist in shard-node mode.
func TestShardQueryValidation(t *testing.T) {
	_, ts := newShardNode(t)
	resp, _, _ := postShardQuery(t, ts.URL, corpus.ShardQueryRequest{Query: "cd[", Bound: -1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed query: status %d, want 400", resp.StatusCode)
	}

	_, plain := newTestServer(t, Config{})
	r, err := http.Post(plain.URL+"/shard/query", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("/shard/query without -shard-node: status %d, want 404", r.StatusCode)
	}
}

// TestBoundVar pins the cutoff cell's monotonicity: lower only ever
// tightens, and -1 decodes as "none", not a valid bound.
func TestBoundVar(t *testing.T) {
	bv := newBoundVar(-1)
	if bv.current() != approxql.Inf {
		t.Fatalf("initial bound = %d, want Inf", bv.current())
	}
	bv.lower(5)
	bv.lower(7) // looser: ignored
	if bv.current() != 5 {
		t.Fatalf("bound = %d after lower(5), lower(7); want 5", bv.current())
	}
	bv.lower(-1) // "none" can never loosen an existing bound
	if bv.current() != 5 {
		t.Fatalf("bound = %d after lower(-1); want 5", bv.current())
	}
	bv.lower(0)
	if bv.current() != 0 {
		t.Fatalf("bound = %d after lower(0); want 0 (exact matches only)", bv.current())
	}
}

// newGatherer builds a gatherer over one live shard node plus one dead
// address, the canonical degraded cluster.
func newGatherer(t *testing.T, failClosed bool) *httptest.Server {
	t.Helper()
	_, node := newShardNode(t)
	cl, err := approxql.NewCluster([]string{node.URL, "http://127.0.0.1:1"}, nil, &approxql.ClusterOptions{
		ConnectTimeout: 500 * time.Millisecond,
		Retries:        -1,
		FailClosed:     failClosed,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Cluster: cl, Model: approxql.PaperCostModel()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestGathererPartial pins fail-open degradation: a dead node yields a
// well-formed 200 with "partial": true and per-node error detail — and
// partial rankings are never served from the cache.
func TestGathererPartial(t *testing.T) {
	ts := newGatherer(t, false)
	for round := 0; round < 2; round++ {
		resp, body := postQuery(t, ts.URL, QueryRequest{Query: `cd[title["concerto"]]`, N: 5})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("round %d: status %d: %s", round, resp.StatusCode, body)
		}
		qr := decodeResponse(t, body)
		if !qr.Partial {
			t.Fatalf("round %d: partial = false with a dead node: %s", round, body)
		}
		if qr.Cached {
			t.Fatalf("round %d: partial ranking served from cache", round)
		}
		if len(qr.Results) == 0 {
			t.Fatalf("round %d: no results from the surviving node", round)
		}
		if len(qr.Nodes) != 2 {
			t.Fatalf("round %d: %d node entries, want 2", round, len(qr.Nodes))
		}
		dead := 0
		for _, n := range qr.Nodes {
			if n.Error != "" {
				dead++
			}
		}
		if dead != 1 {
			t.Fatalf("round %d: %d failed nodes in detail, want 1: %s", round, dead, body)
		}
	}
}

// TestGathererFailClosed pins the opposite policy: with -fail-closed a
// dead node breaks the query with 502, never a silent partial ranking.
func TestGathererFailClosed(t *testing.T) {
	ts := newGatherer(t, true)
	resp, body := postQuery(t, ts.URL, QueryRequest{Query: `cd[title["concerto"]]`, N: 5})
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d, want 502: %s", resp.StatusCode, body)
	}
}

// TestGathererMatchesNode pins gather correctness at the server level: a
// gatherer over one healthy node answers /query with the node corpus's
// own ranking and caches it.
func TestGathererMatchesNode(t *testing.T) {
	srv, node := newShardNode(t)
	cl, err := approxql.NewCluster([]string{node.URL}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Cluster: cl, Model: approxql.PaperCostModel()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	want, err := srv.corpus.Search(`cd[title["concerto"]]`, 5,
		approxql.WithCostModel(approxql.PaperCostModel()))
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postQuery(t, ts.URL, QueryRequest{Query: `cd[title["concerto"]]`, N: 5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	qr := decodeResponse(t, body)
	if qr.Partial || len(qr.Results) != len(want) {
		t.Fatalf("gather = %s, want %d non-partial hits", body, len(want))
	}
	for i, r := range qr.Results {
		if r.Doc != want[i].Doc || r.Root != want[i].Root || r.Cost != int64(want[i].Cost) {
			t.Fatalf("hit %d = %+v, want %+v", i, r, want[i])
		}
		if r.Path == "" {
			t.Fatalf("hit %d has no node-resolved path", i)
		}
	}

	resp2, body2 := postQuery(t, ts.URL, QueryRequest{Query: `cd[title["concerto"]]`, N: 5})
	if resp2.StatusCode != http.StatusOK || !decodeResponse(t, body2).Cached {
		t.Fatalf("second gather not served from cache: %s", body2)
	}
}

// TestClusterHealthz pins the gatherer's health view: per-node detail,
// aggregate docs/shards over reachable nodes, "degraded" on any outage.
func TestClusterHealthz(t *testing.T) {
	ts := newGatherer(t, false)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hr HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	if hr.Status != "degraded" {
		t.Fatalf("status %q with a dead node, want degraded", hr.Status)
	}
	if len(hr.ClusterNodes) != 2 {
		t.Fatalf("%d cluster nodes, want 2: %+v", len(hr.ClusterNodes), hr)
	}
	ok, unreachable := 0, 0
	for _, n := range hr.ClusterNodes {
		switch n.Status {
		case "ok":
			ok++
		case "unreachable":
			unreachable++
		}
	}
	if ok != 1 || unreachable != 1 {
		t.Fatalf("nodes = %+v, want one ok and one unreachable", hr.ClusterNodes)
	}
	if hr.Docs == 0 || hr.Shards == 0 {
		t.Fatalf("aggregate stats empty: %+v", hr)
	}
}

// TestClusterMetrics verifies the gatherer's per-node counters reach the
// Prometheus exposition.
func TestClusterMetrics(t *testing.T) {
	ts := newGatherer(t, false)
	postQuery(t, ts.URL, QueryRequest{Query: `cd[title["concerto"]]`, N: 5})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"axql_cluster_partial_total 1",
		"axql_cluster_node_requests_total",
		"axql_cluster_node_errors_total",
		`node="http://127.0.0.1:1"`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics misses %q:\n%s", want, text)
		}
	}
}
