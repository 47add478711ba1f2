package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"approxql"
)

// corpusDocs are three small documents with overlapping vocabulary, so
// corpus queries rank hits across documents.
var corpusDocs = []struct{ name, xml string }{
	{"doc1.xml", `<catalog><cd><title>Piano Concerto</title><composer>Rachmaninov</composer></cd></catalog>`},
	{"doc2.xml", `<catalog><cd><title>Violin Concerto</title><composer>Beethoven</composer></cd><mc><title>Concerto</title></mc></catalog>`},
	{"doc3.xml", `<catalog><cd><tracks><track><title>Piano Sonata</title></track></tracks></cd><cd><title>Cello Concerto</title></cd></catalog>`},
}

func buildCorpus(t *testing.T) *approxql.Corpus {
	t.Helper()
	cb := approxql.NewCorpusBuilder(approxql.PaperCostModel())
	cb.SetShardSize(1) // one document per shard: the full scatter-gather path
	for _, d := range corpusDocs {
		if _, err := cb.AddDocumentString(d.name, d.xml); err != nil {
			t.Fatal(err)
		}
	}
	c, err := cb.Corpus()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestServerLoadEquivalenceCorpus extends the PR 3 load test to the corpus
// path: goroutines firing mixed corpus and single-document queries over
// HTTP must always receive exactly the ranking the direct Corpus.Search /
// Database.Search calls produce — result cache on, and clean under -race.
func TestServerLoadEquivalenceCorpus(t *testing.T) {
	model := approxql.PaperCostModel()

	corpus := buildCorpus(t)
	t.Cleanup(func() { corpus.Close() })
	// MaxInflight -1: this test is about ranking equivalence under
	// concurrency, not admission control, so nothing may be shed.
	_, corpusTS := newTestServer(t, Config{Corpus: corpus, Model: model, CacheEntries: 64, MaxInflight: -1})

	db := buildDB(t)
	_, dbTS := newTestServer(t, Config{DB: db, Model: model, CacheEntries: 64, MaxInflight: -1})

	queries := []string{
		`cd[title["concerto"]]`,
		`cd[composer]`,
		`mc[title]`,
		`cd[title["piano" and "concerto"]]`,
		`track[title]`,
		`catalog[cd[title]]`,
	}
	ns := []int{1, 3, 8}

	type key struct {
		q string
		n int
	}
	// Reference rankings through the public library API, computed once.
	wantCorpus := make(map[key][]approxql.Hit)
	wantDB := make(map[key][]approxql.Result)
	for _, q := range queries {
		for _, n := range ns {
			hits, err := corpus.Search(q, n, approxql.WithCostModel(model))
			if err != nil {
				t.Fatalf("corpus %s: %v", q, err)
			}
			wantCorpus[key{q, n}] = hits
			res, err := db.Search(q, n, approxql.WithCostModel(model))
			if err != nil {
				t.Fatalf("db %s: %v", q, err)
			}
			wantDB[key{q, n}] = res
		}
	}

	const goroutines = 48
	const perGoroutine = 12
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perGoroutine; i++ {
				q := queries[(g*perGoroutine+i)%len(queries)]
				n := ns[(g+i)%len(ns)]
				useCorpus := (g+i)%2 == 0
				url := dbTS.URL
				if useCorpus {
					url = corpusTS.URL
				}
				body, _ := json.Marshal(QueryRequest{Query: q, N: n})
				resp, err := http.Post(url+"/query", "application/json", bytes.NewReader(body))
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
				if useCorpus {
					want := wantCorpus[key{q, n}]
					if len(qr.Results) != len(want) {
						errs <- fmt.Errorf("corpus %s n=%d: %d results, want %d", q, n, len(qr.Results), len(want))
						return
					}
					for j, w := range want {
						got := qr.Results[j]
						if got.Doc != w.Doc || got.Root != w.Root || got.Cost != int64(w.Cost) ||
							got.DocName != corpus.Doc(w.Doc).Name() {
							errs <- fmt.Errorf("corpus %s n=%d result %d: got %+v want %+v", q, n, j, got, w)
							return
						}
					}
				} else {
					want := wantDB[key{q, n}]
					if len(qr.Results) != len(want) {
						errs <- fmt.Errorf("db %s n=%d: %d results, want %d", q, n, len(qr.Results), len(want))
						return
					}
					for j, w := range want {
						got := qr.Results[j]
						if got.Root != w.Root || got.Cost != int64(w.Cost) {
							errs <- fmt.Errorf("db %s n=%d result %d: got %+v want %+v", q, n, j, got, w)
							return
						}
					}
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

// TestServerAdmissionBurst drives a burst above -max-inflight: every excess
// request gets a 429 with a sane Retry-After, no in-flight query is
// dropped, and the /metrics counters account for every rejection.
func TestServerAdmissionBurst(t *testing.T) {
	const maxInflight = 2
	const burst = 12
	s, ts := newTestServer(t, Config{MaxInflight: maxInflight, CacheEntries: -1})

	admitted := make(chan struct{}, maxInflight)
	release := make(chan struct{})
	s.testHookSearch = func() {
		admitted <- struct{}{}
		<-release
	}

	// Fill every admission slot with distinct queries held in flight.
	heldDone := make(chan int, maxInflight)
	held := []string{`cd[title["concerto"]]`, `mc[title]`}
	for _, q := range held {
		go func(q string) {
			resp, _ := postQuery(t, ts.URL, QueryRequest{Query: q, N: 3})
			heldDone <- resp.StatusCode
		}(q)
	}
	for i := 0; i < maxInflight; i++ {
		<-admitted
	}

	// The burst: everything beyond the bound is rejected immediately.
	var wg sync.WaitGroup
	type rejection struct {
		status     int
		retryAfter string
	}
	rejections := make(chan rejection, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, _ := postQuery(t, ts.URL, QueryRequest{Query: fmt.Sprintf(`cd[composer["c%d"]]`, i), N: 3})
			rejections <- rejection{resp.StatusCode, resp.Header.Get("Retry-After")}
		}(i)
	}
	wg.Wait()
	close(rejections)
	for r := range rejections {
		if r.status != http.StatusTooManyRequests {
			t.Errorf("burst request status = %d, want 429", r.status)
		}
		if secs, err := strconv.Atoi(r.retryAfter); err != nil || secs < 1 {
			t.Errorf("Retry-After = %q, want a positive integer", r.retryAfter)
		}
	}

	// Zero dropped in-flight queries: both held requests complete OK.
	close(release)
	for i := 0; i < maxInflight; i++ {
		if status := <-heldDone; status != http.StatusOK {
			t.Errorf("held query status = %d, want 200", status)
		}
	}

	// The rejection counter saw the whole burst; nothing leaked a slot.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	text := buf.String()
	for _, want := range []string{
		fmt.Sprintf("axql_admission_rejected_total %d", burst),
		fmt.Sprintf(`axql_requests_total{endpoint="/query",code="429"} %d`, burst),
		"axql_inflight_queries 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// The semaphore drained: a fresh query is admitted again.
	s.testHookSearch = nil
	if resp, body := postQuery(t, ts.URL, QueryRequest{Query: `cd[title]`, N: 3}); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-burst query status = %d, body %s", resp.StatusCode, body)
	}
}

// TestServerSlowQueryDrain is the semaphore-drain regression test: a query
// slower than its deadline yields 504 without wedging the admission slot,
// and Shutdown still drains cleanly afterwards.
func TestServerSlowQueryDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInflight: 1, CacheEntries: -1})
	s.testHookSearch = func() { time.Sleep(30 * time.Millisecond) }

	resp, body := postQuery(t, ts.URL, QueryRequest{Query: `cd[title["concerto"]]`, N: 3, TimeoutMS: 1})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("slow query status = %d, body %s", resp.StatusCode, body)
	}

	// The 504 must have released its slot. The release happens in a defer
	// after the response is written, so poll briefly instead of racing it.
	deadline := time.Now().Add(2 * time.Second)
	for s.admission.inflight.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("admission slot still held after 504")
		}
		time.Sleep(time.Millisecond)
	}

	s.testHookSearch = nil
	resp, body = postQuery(t, ts.URL, QueryRequest{Query: `cd[title["concerto"]]`, N: 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-504 query status = %d, body %s (wedged semaphore?)", resp.StatusCode, body)
	}
}

// syncBuffer is a minimal concurrent-safe io.Writer for asserting log
// output.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestServerQueryRecord pins the query-log hook: every well-formed /query
// arrival — cold, cached, even admission-rejected — lands in the log as one
// JSON line with monotone arrival offsets.
func TestServerQueryRecord(t *testing.T) {
	var logBuf syncBuffer
	_, ts := newTestServer(t, Config{QueryLog: &logBuf})

	postQuery(t, ts.URL, QueryRequest{Query: `cd[ title[ "concerto" ] ]`, N: 5})
	postQuery(t, ts.URL, QueryRequest{Query: `cd[title["concerto"]]`, N: 5}) // cache hit
	postQuery(t, ts.URL, QueryRequest{Query: `mc[title]`, N: 2, Strategy: "direct"})
	postQuery(t, ts.URL, QueryRequest{Query: `cd[broken[`, N: 5}) // malformed: not logged

	var items []queryRecord
	for _, line := range strings.Split(strings.TrimSuffix(logBuf.String(), "\n"), "\n") {
		var it queryRecord
		if err := json.Unmarshal([]byte(line), &it); err != nil {
			t.Fatalf("log line %q: %v", line, err)
		}
		items = append(items, it)
	}
	if len(items) != 3 {
		t.Fatalf("logged %d arrivals, want 3 (malformed queries excluded): %+v", len(items), items)
	}
	wantFP, err := approxql.Fingerprint(`cd[title["concerto"]]`)
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range []int{0, 1} {
		if items[it].Query != `cd[title["concerto"]]` || items[it].N != 5 ||
			items[it].Strategy != "auto" || items[it].Fingerprint != wantFP {
			t.Errorf("log entry %d = %+v", i, items[it])
		}
	}
	if items[2].Query != `mc[title]` || items[2].N != 2 || items[2].Strategy != "direct" {
		t.Errorf("log entry 2 = %+v", items[2])
	}
	var last int64 = -1
	for _, it := range items {
		if it.AtMS < last {
			t.Errorf("arrival offsets not monotone: %+v", items)
		}
		last = it.AtMS
	}
}
