package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"approxql"
)

// answer is what a caller saw for one request.
type answer struct {
	hits []hit
	// cached and partial echo the server's response flags; bytes is the
	// response body size.
	cached, partial bool
	bytes           int
}

// caller issues pool entries against the surface under test. A caller is
// used by one goroutine.
type caller interface {
	call(e poolEntry) (answer, error)
	close()
}

// storedCaller is a library caller: Database.Search with the workload's
// forced strategy and the query's own cost model.
type storedCaller struct {
	db       *approxql.Database
	p        *pool
	strategy approxql.Strategy
	// metrics, when non-nil, is attached to every query (the traced load
	// phase) and accumulates.
	metrics *approxql.QueryMetrics
}

func (c *storedCaller) call(e poolEntry) (answer, error) {
	opts := []approxql.QueryOption{
		approxql.WithStrategy(c.strategy),
		approxql.WithCostModel(c.p.queries[e.qi].model),
	}
	if c.metrics != nil {
		opts = append(opts, approxql.WithMetrics(c.metrics))
	}
	res, err := c.db.Search(e.query, e.n, opts...)
	return answer{hits: hitsOf(res)}, err
}

func (c *storedCaller) close() {}

// httpCaller is one keep-alive client connection to a server's /query.
type httpCaller struct {
	url    string
	client *http.Client
	buf    bytes.Buffer
}

func newHTTPCaller(base string) *httpCaller {
	return &httpCaller{
		url: base + "/query",
		client: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 1},
			Timeout:   30 * time.Second,
		},
	}
}

type queryBody struct {
	Query    string `json:"query"`
	N        int    `json:"n"`
	Strategy string `json:"strategy"`
}

// queryReply is the part of the server's response the benchmark checks.
type queryReply struct {
	Cached  bool `json:"cached"`
	Partial bool `json:"partial"`
	Results []struct {
		Doc  int   `json:"doc"`
		Root int   `json:"root"`
		Cost int64 `json:"cost"`
	} `json:"results"`
}

// statusError is a non-200 answer: 429 at admission, 504 past the deadline,
// 5xx otherwise. Every one counts as a failed request.
type statusError struct{ code int }

func (e statusError) Error() string { return fmt.Sprintf("HTTP status %d", e.code) }

func (c *httpCaller) post(e poolEntry, strategy approxql.Strategy) (answer, error) {
	body, err := json.Marshal(queryBody{Query: e.query, N: e.n, Strategy: strategy.String()})
	if err != nil {
		return answer{}, err
	}
	resp, err := c.client.Post(c.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return answer{}, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := io.Copy(&c.buf, resp.Body); err != nil {
		return answer{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return answer{}, statusError{resp.StatusCode}
	}
	var reply queryReply
	if err := json.Unmarshal(c.buf.Bytes(), &reply); err != nil {
		return answer{}, err
	}
	a := answer{cached: reply.Cached, partial: reply.Partial, bytes: c.buf.Len(), hits: make([]hit, len(reply.Results))}
	for i, r := range reply.Results {
		a.hits[i] = hit{doc: r.Doc, root: r.Root, cost: r.Cost}
	}
	return a, nil
}

func (c *httpCaller) close() { c.client.CloseIdleConnections() }

// serveCaller binds an httpCaller to a workload's strategy.
type serveCaller struct {
	*httpCaller
	strategy approxql.Strategy
}

func (c serveCaller) call(e poolEntry) (answer, error) { return c.post(e, c.strategy) }

// checkFull compares a whole ranking with the oracle's.
func checkFull(p *pool, e poolEntry, a answer) bool {
	want := p.want(e)
	if a.partial || len(a.hits) != len(want) {
		return false
	}
	for i := range want {
		if a.hits[i] != want[i] {
			return false
		}
	}
	return true
}

// checkTies is checkFull for a surface that may return any members of a tie:
// the costs must be the oracle's, in order, and every hit must be a distinct
// element of the oracle's whole ranking at the oracle's cost.
func checkTies(p *pool, e poolEntry, a answer) bool {
	want := p.want(e)
	if a.partial || len(a.hits) != len(want) {
		return false
	}
	all := make(map[hit]bool, len(p.queries[e.qi].expected))
	for _, h := range p.queries[e.qi].expected {
		all[h] = true
	}
	for i, h := range a.hits {
		if h.cost != want[i].cost || !all[h] {
			return false
		}
		delete(all, h)
	}
	return true
}

// checkLight is the check of every answer of a load phase: an answer is correct when it is
// complete and non-empty with the expected hit count and top cost.
func checkLight(p *pool, e poolEntry, a answer) bool {
	want := p.want(e)
	return !a.partial && len(a.hits) == len(want) && len(a.hits) > 0 && a.hits[0].cost == want[0].cost
}

// sample is one attempted request of a load phase: how long it took, in
// seconds — from the call in a closed loop, from the due time in an open
// loop — and whether the answer was correct.
type sample struct {
	lat float64
	ok  bool
}

// loadResult is the outcome of one load phase.
type loadResult struct {
	samples []sample
	// late holds, for an open loop, how long after its due time each
	// request was handed to the workers' queue, in seconds.
	late []float64
	// cost is what the process spent between the first request and the
	// last completion, elapsed how long that took.
	cost    procSnap
	elapsed time.Duration
}

func (r *loadResult) attempted() int { return len(r.samples) }

func (r *loadResult) failed() int {
	n := 0
	for _, s := range r.samples {
		if !s.ok {
			n++
		}
	}
	return n
}

// latencies returns the sorted latencies of the samples, in seconds.
func (r *loadResult) latencies() []float64 {
	out := make([]float64, len(r.samples))
	for i, s := range r.samples {
		out[i] = s.lat
	}
	sort.Float64s(out)
	return out
}

// finish closes a phase that began at start with the process costs before.
func (r *loadResult) finish(start time.Time, before procSnap, results [][]sample) error {
	r.elapsed = time.Since(start)
	after, err := snapProc()
	r.cost = after.since(before)
	for _, rs := range results {
		r.samples = append(r.samples, rs...)
	}
	return err
}

// verifyPass sends every pool entry once, split over the callers, and
// checks each whole ranking. It also warms caches and lazy state before the
// timed phase. It returns the entries whose answer was wrong.
func verifyPass(callers []caller, p *pool, check func(*pool, poolEntry, answer) bool) (failed []poolEntry, err error) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	for ci, c := range callers {
		wg.Add(1)
		go func(ci int, c caller) {
			defer wg.Done()
			for i := ci; i < len(p.entries); i += len(callers) {
				e := p.entries[i]
				a, cerr := c.call(e)
				if cerr == nil && check(p, e, a) {
					continue
				}
				mu.Lock()
				failed = append(failed, e)
				if cerr != nil && err == nil {
					err = fmt.Errorf("%s (n=%d): %w", e.query, e.n, cerr)
				}
				mu.Unlock()
			}
		}(ci, c)
	}
	wg.Wait()
	sort.Slice(failed, func(i, j int) bool { return failed[i].id < failed[j].id })
	return failed, err
}

// popularity ranks the pool for zipf draws. The ranking belongs to the
// catalogue, not to the seed: hot entries with large answers cost several
// times what hot entries with small ones do, so a ranking per seed would make
// every seed a different workload.
func popularity(p *pool) []int {
	return rand.New(rand.NewSource(catalogueSeed)).Perm(len(p.entries))
}

// walker returns the sequence of pool entries one closed-loop caller sends:
// zipf draws over the catalogue's popularity ranking, or the whole pool in a
// seeded order that is reshuffled after every pass.
func walker(p *pool, zipf bool, seed int64) func() poolEntry {
	rng := rand.New(rand.NewSource(seed))
	if zipf {
		rank := popularity(p)
		z := rand.NewZipf(rng, popularityZipf, 1, uint64(len(p.entries)-1))
		return func() poolEntry { return p.entries[rank[z.Uint64()]] }
	}
	var order []int
	return func() poolEntry {
		if len(order) == 0 {
			order = rng.Perm(len(p.entries))
		}
		e := p.entries[order[0]]
		order = order[1:]
		return e
	}
}

// runClosed is the closed loop: every caller sends its walker's next request
// when the previous one is answered, until dur has passed.
func runClosed(callers []caller, p *pool, walkers []func() poolEntry, dur time.Duration) (loadResult, error) {
	var out loadResult
	before, err := snapProc()
	if err != nil {
		return out, err
	}
	results := make([][]sample, len(callers))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for ci, c := range callers {
		wg.Add(1)
		go func(ci int, c caller) {
			defer wg.Done()
			for t0 := time.Now(); t0.Before(deadline); t0 = time.Now() {
				e := walkers[ci]()
				a, err := c.call(e)
				results[ci] = append(results[ci], sample{time.Since(t0).Seconds(), err == nil && checkLight(p, e, a)})
			}
		}(ci, c)
	}
	wg.Wait()
	return out, out.finish(start, before, results)
}

// arrival is one request of an open-loop stream.
type arrival struct {
	due   time.Duration
	entry poolEntry
}

// openStream is the open loop's schedule: rate*dur arrivals of a Poisson
// process over [0, dur) — given their number, such arrivals are sorted uniform
// draws — each asking for a pool entry drawn with zipf popularity.
func openStream(p *pool, seed int64, rate float64, dur time.Duration) []arrival {
	rng := rand.New(rand.NewSource(seed))
	next := walker(p, true, seed+1)
	out := make([]arrival, int(rate*dur.Seconds()))
	due := make([]float64, len(out))
	for i := range due {
		due[i] = rng.Float64() * float64(dur)
	}
	sort.Float64s(due)
	for i := range out {
		out[i] = arrival{time.Duration(due[i]), next()}
	}
	return out
}

// runOpen is the open loop: requests become due on the stream's schedule
// whatever the server does; at most len(callers) are in flight, later ones
// wait in a queue, and each is timed from when it was due.
func runOpen(callers []caller, p *pool, stream []arrival) (loadResult, error) {
	out := loadResult{late: make([]float64, len(stream))}
	before, err := snapProc()
	if err != nil {
		return out, err
	}
	// The queue holds the whole stream, so the dispatcher never blocks
	// on a slow server and lateness measures the generator alone.
	queue := make(chan arrival, len(stream))
	results := make([][]sample, len(callers))
	var wg sync.WaitGroup
	start := time.Now()
	for ci, c := range callers {
		wg.Add(1)
		go func(ci int, c caller) {
			defer wg.Done()
			for ar := range queue {
				a, err := c.call(ar.entry)
				results[ci] = append(results[ci], sample{(time.Since(start) - ar.due).Seconds(), err == nil && checkLight(p, ar.entry, a)})
			}
		}(ci, c)
	}
	// The dispatcher sleeps in the kernel on a thread of its own: the Go
	// runtime's timers wake an idle process up to a millisecond late,
	// which would be most of a cache hit's latency.
	runtime.LockOSThread()
	for i, ar := range stream {
		if wait := ar.due - time.Since(start); wait > 0 {
			ts := syscall.NsecToTimespec(wait.Nanoseconds())
			syscall.Nanosleep(&ts, nil) // an early wake-up only sends early
		}
		out.late[i] = (time.Since(start) - ar.due).Seconds()
		queue <- ar
	}
	runtime.UnlockOSThread()
	close(queue)
	wg.Wait()
	return out, out.finish(start, before, results)
}

// quantile returns the q-quantile of sorted (ascending) samples by the
// nearest-rank rule.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}
