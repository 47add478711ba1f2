package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"approxql"
)

// span is one rung of the ladder on one query: its name, the rung it sits
// under, and when it ran, in nanoseconds since the trace began. Spans of one
// ladder step share a step number.
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Step   int    `json:"step"`
	Query  int    `json:"query"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the spans kept for the trace file; the metrics use every
// step.
const maxSpans = 20000

// tracer keeps spans in memory until the run ends.
type tracer struct {
	origin time.Time
	spans  []span
}

func (tr *tracer) add(name, parent string, step, query int, start, end time.Time) {
	if len(tr.spans) < maxSpans {
		tr.spans = append(tr.spans, span{name, parent, step, query, start.Sub(tr.origin).Nanoseconds(), end.Sub(tr.origin).Nanoseconds()})
	}
}

// traceFile is what a traced run leaves in benchmark/out/.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Steps    int    `json:"steps"`
	// SelfUS is each rung's mean self time per ladder step: its duration
	// minus the rung below.
	SelfUS map[string]float64 `json:"self_us"`
	Spans  []span             `json:"spans"`
}

// sums accumulates the ladder.
type sums struct {
	steps int
	// stored rungs
	expand, plan, search, own, picked, better time.Duration
	evalDur, kbestDur                         time.Duration
	evalAllocs, kbestAllocs                   uint64
	arena                                     int
	schemaPicks                               int
	fetch                                     fetchStats
	decode                                    time.Duration
	decoded                                   int
	km                                        approxql.QueryMetrics
	finalK                                    int
	// serve rungs
	corpusSteps             int
	corpus, server, cluster time.Duration
	bytes                   int64
	cm                      approxql.QueryMetrics
	wrong                   int
}

func us(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / 1e3 / float64(n)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// minLadderSteps is the fewest steps a ladder climbs, however short its
// budget.
const minLadderSteps = 8

// ladderSteps yields the entries the ladder climbs — one caller's walk
// through the workload's own stream — until the budget is spent.
func ladderSteps(cfg config, p *pool, budget time.Duration) func() (int, poolEntry, bool) {
	next := walker(p, cfg.workload.zipf, cfg.seed)
	deadline := time.Now().Add(budget)
	i := -1
	return func() (int, poolEntry, bool) {
		i++
		if i >= minLadderSteps && !time.Now().Before(deadline) {
			return i, poolEntry{}, false
		}
		return i, next(), true
	}
}

// storedLadder climbs, per pool entry: lang (parse+expand), plan (decide),
// both engine rungs on backends of their own, and approxql.search on the
// database under test. The backend.fetch span nests inside the engine rung
// of the workload's strategy and index.decode is that rung's decode replay.
func storedLadder(cfg config, p *prepared, tgt *target, rungs *engineRungs, tr *tracer, budget time.Duration) (sums, error) {
	var s sums
	w := cfg.workload
	step := ladderSteps(cfg, p.pool, budget)
	for i, e, ok := step(); ok; i, e, ok = step() {
		q := p.pool.queries[e.qi]
		x, dExpand, err := expandQuery(e.query, q.model)
		if err != nil {
			return s, err
		}
		pickSchema, dPlan := rungs.decide(x, e.n)
		re, err := rungs.runEval(x, e.n)
		if err != nil {
			return s, err
		}
		rk, err := rungs.runKBest(x, e.n)
		if err != nil {
			return s, err
		}
		var qm approxql.QueryMetrics
		t0 := time.Now()
		res, err := tgt.db.Search(e.query, e.n, approxql.WithStrategy(w.strategy), approxql.WithCostModel(q.model),
			approxql.WithParallelism(1), approxql.WithMetrics(&qm))
		t1 := time.Now()
		if err != nil {
			return s, err
		}
		want := p.pool.want(e)
		if len(res) != len(want) || int64(res[0].Cost) != want[0].cost || re.results != len(want) {
			s.wrong++
		}

		own, ownName := re, "eval.bestn"
		if w.strategy == approxql.SchemaDriven {
			own, ownName = rk, "kbest.bestn"
		}
		tr.add("approxql.search", "", i, e.qi, t0, t1)
		tr.add("eval.bestn", "approxql.search", i, e.qi, re.start, re.end)
		tr.add("kbest.bestn", "approxql.search", i, e.qi, rk.start, rk.end)
		if own.fetch.fetches > 0 {
			tr.add("backend.fetch", ownName, i, e.qi, own.fetch.first, own.fetch.last)
			// The decode happened inside the fetch; the replay only says
			// how long it took.
			tr.add("index.decode", "backend.fetch", i, e.qi, own.fetch.first, own.fetch.first.Add(min(own.decode, own.fetch.missDur)))
		}

		s.steps++
		s.expand += dExpand
		s.plan += dPlan
		s.search += t1.Sub(t0)
		de, dk := re.end.Sub(re.start), rk.end.Sub(rk.start)
		s.evalDur += de
		s.kbestDur += dk
		s.evalAllocs += re.allocs
		s.kbestAllocs += rk.allocs
		s.arena += re.arenaEntries
		s.own += own.end.Sub(own.start)
		if pickSchema {
			s.schemaPicks++
			s.picked += dk
		} else {
			s.picked += de
		}
		s.better += min(de, dk)
		s.fetch.add(own.fetch)
		s.decode += min(own.decode, own.fetch.missDur)
		s.decoded += own.decoded
		s.km.Merge(&rk.m)
		s.finalK += rk.m.FinalK
	}
	return s, nil
}

// serveLadder climbs, per stream entry: the request through the front
// server (the gatherer on serve-cluster, where the single-process server is
// a rung of its own), then — unless the answer came from the result cache —
// Corpus.Search on the corpus that server answers from.
func serveLadder(cfg config, p *prepared, tgt *target, tr *tracer, budget time.Duration) (sums, error) {
	var s sums
	w := cfg.workload
	front := newHTTPCaller(tgt.url)
	defer front.close()
	single := front
	if w.cluster {
		single = newHTTPCaller(tgt.singleURL)
		defer single.close()
	}
	step := ladderSteps(cfg, p.pool, budget)
	for i, e, ok := step(); ok; i, e, ok = step() {
		t0 := time.Now()
		a, err := front.post(e, w.strategy)
		t1 := time.Now()
		if err != nil {
			return s, err
		}
		if !checkLight(p.pool, e, a) {
			s.wrong++
		}
		s.steps++
		s.bytes += int64(a.bytes)
		above := ""
		if w.cluster {
			above = "cluster.query"
			tr.add(above, "", i, e.qi, t0, t1)
			s.cluster += t1.Sub(t0)
			t0 = time.Now()
			if a, err = single.post(e, w.strategy); err != nil {
				return s, err
			}
			t1 = time.Now()
		}
		tr.add("server.query", above, i, e.qi, t0, t1)
		s.server += t1.Sub(t0)
		if a.cached {
			continue
		}
		var qm approxql.QueryMetrics
		t0 = time.Now()
		hits, err := tgt.corpus.Search(e.query, e.n, approxql.WithStrategy(w.strategy),
			approxql.WithCostModel(p.pool.serverModel), approxql.WithMetrics(&qm))
		t1 = time.Now()
		if err != nil {
			return s, err
		}
		if len(hits) != len(p.pool.want(e)) {
			s.wrong++
		}
		tr.add("corpus.search", "server.query", i, e.qi, t0, t1)
		s.corpus += t1.Sub(t0)
		s.corpusSteps++
		s.cm.Merge(&qm)
	}
	return s, nil
}

// scrape reads a server's /metrics into name{labels} -> value.
func scrape(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics: %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// counterDelta sums, over every series whose name starts with prefix, the
// increase from before to after.
func counterDelta(before, after map[string]float64, prefix string) float64 {
	var d float64
	for k, v := range after {
		if strings.HasPrefix(k, prefix) {
			d += v - before[k]
		}
	}
	return d
}

// runTraced is the traced run. It times the set-up layers in a staged
// build, sets the workload up once through the public API, and then spends
// cfg.seconds on three phases: the workload's loop plain (the reference for
// the tracing overhead and the source of the load.* and go.* metrics), the
// same loop with the program's counters attached, and the single-threaded
// ladder.
func runTraced(cfg config, p *prepared) (outcome, error) {
	w := cfg.workload
	work := cfg.workDir()
	defer os.RemoveAll(work)
	staged := filepath.Join(work, "staged")
	if err := os.MkdirAll(staged, 0o755); err != nil {
		return outcome{}, err
	}
	shards := 1
	if w.serve {
		shards = corpusShards
	}
	st, files, err := stagedBuild(staged, p.docs, shards)
	if err != nil {
		return outcome{}, fmt.Errorf("staged build: %w", err)
	}
	tgt, err := cfg.setup(filepath.Join(work, "setup"), p, true)
	if err != nil {
		return outcome{}, fmt.Errorf("set-up: %w", err)
	}
	defer tgt.Close()

	callers := cfg.callers(tgt, p.pool, clients())
	defer closeAll(callers)
	wrong, err := verifyPass(callers, p.pool, cfg.fullCheck())
	if err != nil {
		fmt.Fprintf(cfg.log, "verify: %v\n", err)
	}

	// Phase A: plain.
	runtime.GC()
	plain, err := cfg.loadPhase(callers, p.pool, 0, cfg.phase(0.2))
	if err != nil {
		return outcome{}, err
	}

	// Phase B: the same loop with the counters on.
	var m0 map[string]float64
	if w.serve {
		if m0, err = scrape(tgt.url); err != nil {
			return outcome{}, err
		}
	} else {
		for _, c := range callers {
			c.(*storedCaller).metrics = new(approxql.QueryMetrics)
		}
	}
	counted, err := cfg.loadPhase(callers, p.pool, 1, cfg.phase(0.2))
	if err != nil {
		return outcome{}, err
	}
	var m1 map[string]float64
	if w.serve {
		if m1, err = scrape(tgt.url); err != nil {
			return outcome{}, err
		}
	}

	// An open loop on top, where the workload has independent users.
	ladderShare := 0.6
	var open loadResult
	if w.zipf {
		ladderShare = 0.4
		conns := cfg.callers(tgt, p.pool, openLoopInflight*clients())
		open, err = runOpen(conns, p.pool, openStream(p.pool, cfg.seed, openLoopRate, cfg.phase(0.2)))
		closeAll(conns)
		if err != nil {
			return outcome{}, err
		}
	}

	// Phase C: the ladder.
	tr := &tracer{origin: time.Now()}
	var s sums
	if w.serve {
		s, err = serveLadder(cfg, p, tgt, tr, cfg.phase(ladderShare))
	} else {
		var rungs *engineRungs
		if rungs, err = openEngineRungs(files[0]); err != nil {
			return outcome{}, err
		}
		s, err = storedLadder(cfg, p, tgt, rungs, tr, cfg.phase(ladderShare))
		if cerr := rungs.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return outcome{}, fmt.Errorf("ladder: %w", err)
	}

	v := map[string]float64{
		"xmltree.parse_s":      st.parse.Seconds(),
		"index.build_s":        st.indexBuild.Seconds(),
		"schema.build_s":       st.schemaBuild.Seconds(),
		"storage.persist_s":    st.persist.Seconds(),
		"backend.open_s":       st.open.Seconds(),
		"storage.bundle_bytes": float64(st.bundleBytes),
	}
	n := s.steps
	fn := float64(n)
	// The stored rungs.
	v["lang.parse_expand_us"] = us(s.expand, n)
	v["plan.decide_us"] = us(s.plan, n)
	v["plan.schema_pick_frac"] = ratio(float64(s.schemaPicks), fn)
	v["plan.regret_ratio"] = ratio(float64(s.picked), float64(s.better))
	v["storage.get_us_per_query"] = us(s.fetch.missDur-s.decode, n)
	v["storage.page_reads_per_query"] = ratio(float64(s.fetch.pageReads), fn)
	v["index.decode_us_per_query"] = us(s.decode, n)
	v["index.entries_decoded_per_query"] = ratio(float64(s.decoded), fn)
	v["index.decode_ns_per_entry"] = ratio(float64(s.decode.Nanoseconds()), float64(s.decoded))
	v["backend.fetch_us_per_query"] = us(s.fetch.dur, n)
	v["backend.fetches_per_query"] = ratio(float64(s.fetch.fetches), fn)
	v["backend.lru_hit_frac"] = ratio(float64(s.fetch.hits), float64(s.fetch.fetches))
	v["backend.bytes_decoded_per_query"] = ratio(float64(s.fetch.bytesDecoded), fn)
	v["eval.bestn_us"] = us(s.evalDur, n)
	v["eval.allocs_per_query"] = ratio(float64(s.evalAllocs), fn)
	v["eval.arena_entries_per_query"] = ratio(float64(s.arena), fn)
	v["kbest.bestn_us"] = us(s.kbestDur, n)
	v["kbest.allocs_per_query"] = ratio(float64(s.kbestAllocs), fn)
	km, kn := s.km, fn
	v["kbest.final_k"] = ratio(float64(s.finalK), fn)
	v["approxql.search_us"] = us(s.search, n)
	v["approxql.unaccounted_frac"] = max(0, ratio(float64(s.search-s.expand-s.own), float64(s.search)))
	// The serve rungs.
	v["corpus.search_us"] = us(s.corpus, n)
	shardsSeen := float64(s.cm.Shards + s.cm.ShardsPruned)
	v["corpus.shards_pruned_frac"] = ratio(float64(s.cm.ShardsPruned), shardsSeen)
	v["corpus.bound_stops_per_query"] = ratio(float64(s.cm.BoundStops), float64(s.corpusSteps))
	v["corpus.bound_skipped_per_query"] = ratio(float64(s.cm.BoundSkipped), float64(s.corpusSteps))
	v["server.query_us"] = us(s.server, n)
	v["server.self_us"] = max(0, v["server.query_us"]-v["corpus.search_us"])
	v["server.response_bytes_per_query"] = ratio(float64(s.bytes), fn)
	v["cluster.query_us"] = us(s.cluster, n)
	v["cluster.self_us"] = 0
	if w.cluster {
		v["cluster.self_us"] = max(0, v["cluster.query_us"]-v["server.query_us"])
	}
	for _, name := range []string{"server.result_cache_hit_frac", "server.rejected_frac", "server.timeout_frac",
		"cluster.partial_frac", "cluster.node_retries_per_query", "cluster.bound_stops_per_query"} {
		v[name] = 0
	}
	if w.serve {
		// Phase B's counters, as the front server exports them.
		reqs := counterDelta(m0, m1, `axql_requests_total{endpoint="/query"`)
		hits := counterDelta(m0, m1, "axql_result_cache_hits_total")
		misses := counterDelta(m0, m1, "axql_result_cache_misses_total")
		v["server.result_cache_hit_frac"] = ratio(hits, hits+misses)
		v["server.rejected_frac"] = ratio(counterDelta(m0, m1, "axql_admission_rejected_total"), reqs)
		v["server.timeout_frac"] = ratio(counterDelta(m0, m1, `axql_requests_total{endpoint="/query",code="504"}`), reqs)
		v["cluster.partial_frac"] = ratio(counterDelta(m0, m1, "axql_cluster_partial_total"), reqs)
		v["cluster.node_retries_per_query"] = ratio(counterDelta(m0, m1, "axql_cluster_node_retries_total"), reqs)
		v["cluster.bound_stops_per_query"] = ratio(counterDelta(m0, m1, "axql_cluster_node_bound_stops_total"), reqs)
		// The engines' counters cover the shards that ran schema-driven:
		// those are the runs the server's execution metrics see.
		kn = counterDelta(m0, m1, "axql_queries_evaluated_total")
		km = approxql.QueryMetrics{
			Rounds:              int(counterDelta(m0, m1, "axql_exec_rounds_total")),
			Planned:             int(counterDelta(m0, m1, "axql_exec_planned_total")),
			Deduped:             int(counterDelta(m0, m1, "axql_exec_deduped_total")),
			Executed:            int(counterDelta(m0, m1, "axql_exec_executed_total")),
			SecondaryFetches:    int(counterDelta(m0, m1, "axql_exec_secondary_fetches_total")),
			PostingsScanned:     int(counterDelta(m0, m1, "axql_exec_postings_scanned_total")),
			ResultsEmitted:      int(counterDelta(m0, m1, "axql_exec_results_emitted_total")),
			BackendFetches:      int(counterDelta(m0, m1, "axql_backend_fetches_total")),
			BackendHits:         int(counterDelta(m0, m1, "axql_backend_cache_hits_total")),
			BackendBytesDecoded: int64(counterDelta(m0, m1, "axql_backend_bytes_decoded_total")),
		}
		v["backend.fetches_per_query"] = ratio(float64(km.BackendFetches), kn)
		v["backend.lru_hit_frac"] = ratio(float64(km.BackendHits), float64(km.BackendFetches))
		v["backend.bytes_decoded_per_query"] = ratio(float64(km.BackendBytesDecoded), kn)
	}
	v["kbest.rounds_per_query"] = ratio(float64(km.Rounds), kn)
	v["kbest.planned_per_result"] = ratio(float64(km.Planned), float64(km.ResultsEmitted))
	v["kbest.executed_per_result"] = ratio(float64(km.Executed), float64(km.ResultsEmitted))
	v["kbest.deduped_frac"] = ratio(float64(km.Deduped), float64(km.Planned))
	v["kbest.sec_fetches_per_query"] = ratio(float64(km.SecondaryFetches), kn)
	v["kbest.postings_scanned_per_query"] = ratio(float64(km.PostingsScanned), kn)

	// The load generator and the runtime, from the plain phase; the open
	// loop's latencies, from when each request was due.
	v["load.samples"] = float64(plain.attempted())
	for _, name := range []string{"load.open_p50_ms", "load.open_p99_ms", "load.open_p999_ms", "load.gen_late_p99_ms"} {
		v[name] = 0
	}
	if w.zipf {
		lat := open.latencies()
		v["load.open_p50_ms"] = quantile(lat, 0.5) * 1e3
		v["load.open_p99_ms"] = quantile(lat, 0.99) * 1e3
		v["load.open_p999_ms"] = quantile(lat, 0.999) * 1e3
		sort.Float64s(open.late)
		v["load.gen_late_p99_ms"] = quantile(open.late, 0.99) * 1e3
		if late := v["load.gen_late_p99_ms"]; late > genLateLimitMS {
			return outcome{}, fmt.Errorf("invalid run: the open loop's generator ran %.1f ms late at p99, limit %.0f ms", late, genLateLimitMS)
		}
	}
	v["go.gc_cycles"] = float64(plain.cost.gcCycles)
	v["go.gc_pause_ms"] = plain.cost.gcPause.Seconds() * 1e3
	qa := float64(plain.attempted()) / plain.elapsed.Seconds()
	qb := float64(counted.attempted()) / counted.elapsed.Seconds()
	v["bench.trace_overhead_frac"] = ratio(qa-qb, qa)

	// Validity: a stored workload whose posting LRU behaved otherwise than
	// its definition says measured a different workload.
	if !w.serve && cfg.committedSizing() {
		if f := v["backend.lru_hit_frac"]; f < w.lruLo || f > w.lruHi {
			return outcome{}, fmt.Errorf("invalid run: backend.lru_hit_frac %.3f outside [%.2f, %.2f]", f, w.lruLo, w.lruHi)
		}
	}

	self := map[string]float64{
		"index.decode":    v["index.decode_us_per_query"],
		"backend.fetch":   max(0, v["backend.fetch_us_per_query"]-v["index.decode_us_per_query"]),
		"approxql.search": max(0, us(s.search-s.own, n)),
		"corpus.search":   v["corpus.search_us"],
		"server.query":    v["server.self_us"],
		"cluster.query":   v["cluster.self_us"],
	}
	if w.strategy == approxql.SchemaDriven {
		self["kbest.bestn"] = max(0, v["kbest.bestn_us"]-v["backend.fetch_us_per_query"])
		self["eval.bestn"] = v["eval.bestn_us"]
	} else {
		self["eval.bestn"] = max(0, v["eval.bestn_us"]-v["backend.fetch_us_per_query"])
		self["kbest.bestn"] = v["kbest.bestn_us"]
	}
	tf := traceFile{Workload: w.name, Seed: cfg.seed, Steps: n, SelfUS: self, Spans: tr.spans}
	if err := writeTrace(filepath.Join(cfg.out, "trace-"+w.name+".json"), tf); err != nil {
		return outcome{}, err
	}

	fmt.Fprintf(cfg.log, "workload %s  seed %d  traced: %d ladder steps, plain phase %d samples, counted phase %d samples\n",
		w.name, cfg.seed, n, plain.attempted(), counted.attempted())
	if !w.serve {
		fmt.Fprintf(cfg.log, "figure 7: kbest.bestn_us %.1f vs eval.bestn_us %.1f at n in %v\n",
			v["kbest.bestn_us"], v["eval.bestn_us"], w.nValues)
	}
	return outcome{
		attempted: len(p.pool.queries) + len(p.pool.entries) + plain.attempted() + counted.attempted() + open.attempted() + n,
		failed:    p.expectedDiff + len(wrong) + plain.failed() + counted.failed() + open.failed() + s.wrong,
		values:    v,
	}, nil
}

func writeTrace(path string, tf traceFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
