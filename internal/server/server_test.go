package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"approxql"
)

const catalogXML = `
<catalog>
  <cd>
    <title>Piano Concerto</title>
    <composer>Rachmaninov</composer>
  </cd>
  <cd>
    <tracks><track><title>Piano Sonata</title></track></tracks>
  </cd>
  <cd>
    <title>Violin Concerto</title>
    <composer>Beethoven</composer>
  </cd>
  <mc>
    <title>Concerto</title>
  </mc>
</catalog>`

func buildDB(t *testing.T) *approxql.Database {
	t.Helper()
	b := approxql.NewBuilder(approxql.PaperCostModel())
	if err := b.AddXMLString(catalogXML); err != nil {
		t.Fatal(err)
	}
	db, err := b.Database()
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.DB == nil && cfg.Corpus == nil {
		cfg.DB = buildDB(t)
	}
	if cfg.Model == nil {
		cfg.Model = approxql.PaperCostModel()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postQuery(t *testing.T, url string, req QueryRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func decodeResponse(t *testing.T, body []byte) QueryResponse {
	t.Helper()
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatalf("decode %q: %v", body, err)
	}
	return qr
}

func TestQueryMatchesDatabaseSearch(t *testing.T) {
	db := buildDB(t)
	_, ts := newTestServer(t, Config{DB: db})

	query := `cd[title["concerto"]]`
	resp, body := postQuery(t, ts.URL, QueryRequest{Query: query, N: 5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	qr := decodeResponse(t, body)

	want, err := db.Search(query, 5, approxql.WithCostModel(approxql.PaperCostModel()))
	if err != nil {
		t.Fatal(err)
	}
	if len(qr.Results) != len(want) || len(want) == 0 {
		t.Fatalf("results = %d, want %d (> 0)", len(qr.Results), len(want))
	}
	for i, w := range want {
		got := qr.Results[i]
		if got.Root != w.Root || got.Cost != int64(w.Cost) || got.Rank != i+1 {
			t.Errorf("result %d = %+v, want root %d cost %d", i, got, w.Root, w.Cost)
		}
		if got.Path != db.Path(w.Root) {
			t.Errorf("result %d path = %q, want %q", i, got.Path, db.Path(w.Root))
		}
	}
	if qr.Cached {
		t.Error("first evaluation reported cached")
	}
	if (qr.Strategy != "direct" && qr.Strategy != "schema") || qr.N != 5 {
		t.Errorf("echo = strategy %q n %d", qr.Strategy, qr.N)
	}
	if qr.Planner != "auto" {
		t.Errorf("planner = %q, want auto", qr.Planner)
	}
}

// TestPlannerResponseFields pins the planner's wire format: every /query
// response carries "strategy", "planner", and "estimated_count", resolved
// by the planner for auto requests and echoed for forced ones, identically
// on cache hits.
func TestPlannerResponseFields(t *testing.T) {
	db := buildDB(t)
	_, ts := newTestServer(t, Config{DB: db})

	query := `cd[title["concerto"]]`
	for _, req := range []QueryRequest{
		{Query: query, N: 5},
		{Query: query, N: 5, Strategy: "direct"},
		{Query: query, N: 5, Strategy: "schema"},
	} {
		resp, body := postQuery(t, ts.URL, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d, body %s", resp.StatusCode, body)
		}
		var raw map[string]json.RawMessage
		if err := json.Unmarshal(body, &raw); err != nil {
			t.Fatal(err)
		}
		for _, field := range []string{"strategy", "planner", "estimated_count"} {
			if _, ok := raw[field]; !ok {
				t.Errorf("strategy=%q: response misses %q: %s", req.Strategy, field, body)
			}
		}
		qr := decodeResponse(t, body)
		if req.Strategy == "" {
			if qr.Planner != "auto" {
				t.Errorf("auto request: planner = %q", qr.Planner)
			}
			if qr.Strategy != "direct" && qr.Strategy != "schema" {
				t.Errorf("auto request: strategy = %q", qr.Strategy)
			}
		} else {
			if qr.Planner != "forced" || qr.Strategy != req.Strategy {
				t.Errorf("forced %q: planner = %q strategy = %q", req.Strategy, qr.Planner, qr.Strategy)
			}
		}
		if qr.EstimatedCount <= 0 {
			t.Errorf("strategy=%q: estimated_count = %d, want > 0", req.Strategy, qr.EstimatedCount)
		}

		// A cache hit must reproduce the same planner view.
		_, body2 := postQuery(t, ts.URL, req)
		hit := decodeResponse(t, body2)
		if !hit.Cached {
			t.Errorf("strategy=%q: second response not cached", req.Strategy)
		}
		if hit.Strategy != qr.Strategy || hit.Planner != qr.Planner || hit.EstimatedCount != qr.EstimatedCount {
			t.Errorf("strategy=%q: cache hit planner view %q/%q/%d != cold %q/%q/%d",
				req.Strategy, hit.Strategy, hit.Planner, hit.EstimatedCount,
				qr.Strategy, qr.Planner, qr.EstimatedCount)
		}
	}
}

func TestRenderedSubtrees(t *testing.T) {
	db := buildDB(t)
	_, ts := newTestServer(t, Config{DB: db})
	resp, body := postQuery(t, ts.URL, QueryRequest{Query: `mc[title]`, N: 1, Render: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	qr := decodeResponse(t, body)
	if len(qr.Results) == 0 || !strings.Contains(qr.Results[0].Subtree, "mc") {
		t.Fatalf("subtree missing: %+v", qr.Results)
	}
}

func TestMalformedQueryReportsPosition(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postQuery(t, ts.URL, QueryRequest{Query: `cd[title[`, N: 5})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Position == nil {
		t.Fatalf("no parser position in %s", body)
	}
	if *er.Position != len(`cd[title[`) {
		t.Errorf("position = %d, want %d", *er.Position, len(`cd[title[`))
	}
	if !strings.Contains(er.Error, "syntax error") {
		t.Errorf("error = %q", er.Error)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		req  QueryRequest
	}{
		{"missing query", QueryRequest{N: 5}},
		{"non-positive n", QueryRequest{Query: "cd", N: 0}},
		{"unknown strategy", QueryRequest{Query: "cd", N: 5, Strategy: "magic"}},
	}
	for _, c := range cases {
		resp, body := postQuery(t, ts.URL, c.req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, body %s", c.name, resp.StatusCode, body)
		}
	}
	// Unknown fields are rejected so client typos (e.g. "timeout" for
	// "timeout_ms") fail loudly instead of being ignored.
	resp, err := http.Post(ts.URL+"/query", "application/json",
		strings.NewReader(`{"query":"cd","n":5,"bogus":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status = %d", resp.StatusCode)
	}
}

func TestTimeoutReturns504(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.testHookSearch = func() { time.Sleep(30 * time.Millisecond) }
	resp, body := postQuery(t, ts.URL, QueryRequest{Query: `cd[title["concerto"]]`, N: 5, TimeoutMS: 1})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(er.Error, "deadline") {
		t.Errorf("error = %q", er.Error)
	}
}

func TestSaturationReturns429(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInflight: 1})
	admitted := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.testHookSearch = func() {
		once.Do(func() { close(admitted) })
		<-release
	}

	firstDone := make(chan struct{})
	go func() {
		defer close(firstDone)
		resp, _ := postQuery(t, ts.URL, QueryRequest{Query: `cd[title["concerto"]]`, N: 5})
		if resp.StatusCode != http.StatusOK {
			t.Errorf("first query status = %d", resp.StatusCode)
		}
	}()
	<-admitted

	// The slot is held: a second, uncached query must be turned away.
	resp, body := postQuery(t, ts.URL, QueryRequest{Query: `mc[title]`, N: 5})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	close(release)
	<-firstDone

	// With the slot free again the same query now succeeds.
	s.testHookSearch = nil
	resp, body = postQuery(t, ts.URL, QueryRequest{Query: `mc[title]`, N: 5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after release: status = %d, body %s", resp.StatusCode, body)
	}
}

func TestCacheHitReturnsIdenticalRanking(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := QueryRequest{Query: `cd[title["piano" and "concerto"]]`, N: 5}

	resp, body := postQuery(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold: status = %d, body %s", resp.StatusCode, body)
	}
	cold := decodeResponse(t, body)
	if cold.Cached {
		t.Fatal("cold path reported cached")
	}

	// A differently spelled but canonically identical query must hit.
	resp, body = postQuery(t, ts.URL, QueryRequest{Query: `cd[ title[ "piano concerto" ] ]`, N: 5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm: status = %d, body %s", resp.StatusCode, body)
	}
	warm := decodeResponse(t, body)
	if !warm.Cached {
		t.Fatal("second evaluation missed the cache")
	}
	if !reflect.DeepEqual(cold.Results, warm.Results) {
		t.Errorf("cached ranking differs:\ncold %+v\nwarm %+v", cold.Results, warm.Results)
	}
	if warm.Fingerprint != cold.Fingerprint {
		t.Errorf("fingerprints differ: %s vs %s", cold.Fingerprint, warm.Fingerprint)
	}

	// A different n is a different cache entry.
	resp, body = postQuery(t, ts.URL, QueryRequest{Query: req.Query, N: 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatal(resp.StatusCode)
	}
	if decodeResponse(t, body).Cached {
		t.Error("different n served from cache")
	}
}

func TestInvalidateCache(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := QueryRequest{Query: `mc[title]`, N: 3}
	postQuery(t, ts.URL, req)
	_, body := postQuery(t, ts.URL, req)
	if !decodeResponse(t, body).Cached {
		t.Fatal("expected a cache hit before invalidation")
	}
	s.InvalidateCache()
	_, body = postQuery(t, ts.URL, req)
	if decodeResponse(t, body).Cached {
		t.Error("cache served after invalidation")
	}
}

func TestHealthz(t *testing.T) {
	db := buildDB(t)
	_, ts := newTestServer(t, Config{DB: db})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || h.Status != "ok" || h.Nodes != db.Len() {
		t.Errorf("healthz = %d %+v", resp.StatusCode, h)
	}
}

func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := QueryRequest{Query: `cd[title["concerto"]]`, N: 5}
	postQuery(t, ts.URL, req)
	postQuery(t, ts.URL, req) // cache hit
	postQuery(t, ts.URL, QueryRequest{Query: `cd[bogus[`, N: 5})

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
		"axql_result_cache_hits_total 1",
		"axql_result_cache_misses_total 1",
		"axql_queries_evaluated_total 1",
		`axql_requests_total{endpoint="/query",code="200"} 2`,
		`axql_requests_total{endpoint="/query",code="400"} 1`,
		`axql_request_duration_seconds_count{endpoint="/query"} 3`,
		"axql_exec_results_emitted_total",
		"axql_inflight_queries 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestConcurrentLoad is the load test of the acceptance criteria: 64+
// goroutines firing mixed queries must every time receive exactly the
// ranking Database.Search produces, cache on or off.
func TestConcurrentLoad(t *testing.T) {
	db := buildDB(t)
	model := approxql.PaperCostModel()
	_, ts := newTestServer(t, Config{DB: db, Model: model})

	queries := []string{
		`cd[title["concerto"]]`,
		`cd[title["piano" and "concerto"]]`,
		`mc[title]`,
		`cd[composer["rachmaninov"]]`,
		`cd[title["sonata"]]`,
		`catalog[cd[title]]`,
		`cd[title["concerto"] and composer]`,
		`track[title]`,
	}
	// One reference ranking per (query, n), serialized once: every
	// response must match byte-for-byte.
	type key struct {
		q string
		n int
	}
	want := make(map[key][]byte)
	for _, q := range queries {
		for _, n := range []int{1, 5} {
			results, err := db.Search(q, n, approxql.WithCostModel(model))
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			enc, err := json.Marshal(results)
			if err != nil {
				t.Fatal(err)
			}
			want[key{q, n}] = enc
		}
	}

	const goroutines = 64
	const perGoroutine = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perGoroutine; i++ {
				q := queries[(g+i)%len(queries)]
				n := []int{1, 5}[(g+i)%2]
				body, err := json.Marshal(QueryRequest{Query: q, N: n})
				if err != nil {
					errs <- err
					return
				}
				resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				var qr QueryResponse
				err = json.NewDecoder(resp.Body).Decode(&qr)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("%s n=%d: status %d", q, n, resp.StatusCode)
					return
				}
				got := make([]approxql.Result, len(qr.Results))
				for j, r := range qr.Results {
					got[j] = approxql.Result{Root: r.Root, Cost: approxql.Cost(r.Cost)}
				}
				enc, err := json.Marshal(got)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(enc, want[key{q, n}]) {
					errs <- fmt.Errorf("%s n=%d: got %s want %s", q, n, enc, want[key{q, n}])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestGracefulDrain verifies Shutdown lets an in-flight query finish while
// refusing new connections.
func TestGracefulDrain(t *testing.T) {
	s, err := New(Config{DB: buildDB(t), Model: approxql.PaperCostModel()})
	if err != nil {
		t.Fatal(err)
	}
	admitted := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.testHookSearch = func() {
		once.Do(func() { close(admitted) })
		<-release
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(l) }()
	base := "http://" + l.Addr().String()

	inflightDone := make(chan int, 1)
	go func() {
		body, _ := json.Marshal(QueryRequest{Query: `cd[title["concerto"]]`, N: 5})
		resp, err := http.Post(base+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			inflightDone <- -1
			return
		}
		resp.Body.Close()
		inflightDone <- resp.StatusCode
	}()
	<-admitted

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()

	// Shutdown must block on the in-flight query. Give it a moment to
	// close the listener, then verify both drain properties.
	time.Sleep(20 * time.Millisecond)
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned before the in-flight query finished: %v", err)
	default:
	}

	close(release)
	if status := <-inflightDone; status != http.StatusOK {
		t.Errorf("in-flight query status = %d, want 200", status)
	}
	if err := <-shutdownDone; err != nil {
		t.Errorf("Shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Errorf("Serve: %v", err)
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("connection accepted after shutdown")
	}
}

// TestShutdownClosesUnusedConnections dials a connection that never sends a
// request — what a gatherer's transport leaves behind — and checks that
// Shutdown closes it instead of waiting the five seconds net/http grants
// such connections.
func TestShutdownClosesUnusedConnections(t *testing.T) {
	s, err := New(Config{DB: buildDB(t)})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(l) }()
	base := "http://" + l.Addr().String()

	// Used keep-alive connections, idle by now, alongside the unused one;
	// made concurrently so the ConnState hook runs from several goroutines.
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := client.Get(base + "/healthz")
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
		}()
	}
	wg.Wait()
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Give the server time to accept the raw connection. Were it still in
	// the listen backlog, closing the listener would drop it and the test
	// would pass without exercising the fix, never fail spuriously.
	time.Sleep(20 * time.Millisecond)

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if took := time.Since(start); took >= time.Second {
		t.Errorf("Shutdown took %v with one unused connection open, want < 1s", took)
	}
	if err := <-serveDone; err != nil {
		t.Errorf("Serve: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Error("unused connection still open after Shutdown")
	}
}

func TestNewRequiresDB(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New accepted a nil database")
	}
}
