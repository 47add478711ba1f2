package server

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"approxql"
	"approxql/internal/exec"
)

// latencyBuckets are the histogram upper bounds in seconds, spanning
// sub-millisecond cache hits to the 60s deadline cap.
var latencyBuckets = [numBuckets - 1]float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

const numBuckets = 16 // len(latencyBuckets) + 1 for +Inf

// histogram is a fixed-bucket latency histogram in Prometheus's cumulative
// convention. Guarded by the owning metrics mutex.
type histogram struct {
	counts [numBuckets]int64 // last bucket = +Inf
	sum    float64
	total  int64
}

func (h *histogram) observe(seconds float64) {
	i := sort.SearchFloat64s(latencyBuckets[:], seconds)
	h.counts[i]++
	h.sum += seconds
	h.total++
}

// metrics aggregates everything /metrics exports: per-endpoint request
// counters and latency histograms, and the cumulative execution metrics of
// every evaluated query (which carry the backend posting-cache counters).
type metrics struct {
	mu        sync.Mutex
	started   time.Time
	requests  map[string]int64 // "endpoint|code" -> count
	latencies map[string]*histogram
	exec      exec.Metrics
	queries   int64
	// nodes accumulates a gatherer's per-shard-node counters; partials
	// counts degraded (fail-open) gathers.
	nodes    map[string]*nodeCounters
	partials int64
}

// nodeCounters aggregates one shard node's share of the cluster searches
// this gatherer ran. Guarded by the owning metrics mutex.
type nodeCounters struct {
	requests   int64
	errors     int64
	retries    int64
	boundStops int64
	latencySum float64 // seconds
}

func newMetrics() *metrics {
	return &metrics{
		started:   time.Now(),
		requests:  make(map[string]int64),
		latencies: make(map[string]*histogram),
		nodes:     make(map[string]*nodeCounters),
	}
}

// observeCluster folds one cluster search's per-node outcomes into the
// aggregate.
func (m *metrics) observeCluster(nodes []approxql.NodeStatus, partial bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if partial {
		m.partials++
	}
	for _, st := range nodes {
		nc, ok := m.nodes[st.Node]
		if !ok {
			nc = &nodeCounters{}
			m.nodes[st.Node] = nc
		}
		nc.requests++
		if st.Err != "" {
			nc.errors++
		}
		if st.Stopped {
			nc.boundStops++
		}
		nc.retries += int64(st.Retries)
		nc.latencySum += st.LatencyMS / 1000
	}
}

func (m *metrics) observe(endpoint string, status int, elapsed time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests[fmt.Sprintf("%s|%d", endpoint, status)]++
	h, ok := m.latencies[endpoint]
	if !ok {
		h = &histogram{}
		m.latencies[endpoint] = h
	}
	h.observe(elapsed.Seconds())
}

// mergeExec folds one query's execution metrics into the aggregate.
func (m *metrics) mergeExec(qm *exec.Metrics) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.exec.Merge(qm)
	m.queries++
}

// handleMetrics renders the Prometheus text exposition format by hand —
// the format is a stable line protocol and a dependency-free writer keeps
// the server self-contained.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	m := s.metrics
	m.mu.Lock()
	requests := make(map[string]int64, len(m.requests))
	for k, v := range m.requests {
		requests[k] = v
	}
	hists := make(map[string]histogram, len(m.latencies))
	for k, v := range m.latencies {
		hists[k] = *v
	}
	ex := m.exec.Snapshot()
	queries := m.queries
	nodes := make(map[string]nodeCounters, len(m.nodes))
	for k, v := range m.nodes {
		nodes[k] = *v
	}
	partials := m.partials
	uptime := time.Since(m.started).Seconds()
	m.mu.Unlock()

	hits, misses, entries := s.cache.stats()

	var b strings.Builder
	p := func(format string, args ...any) { fmt.Fprintf(&b, format+"\n", args...) }

	p("# HELP axql_uptime_seconds Time since the server started.")
	p("# TYPE axql_uptime_seconds gauge")
	p("axql_uptime_seconds %g", uptime)

	p("# HELP axql_requests_total Requests served, by endpoint and status code.")
	p("# TYPE axql_requests_total counter")
	for _, k := range sortedKeys(requests) {
		ep, code, _ := strings.Cut(k, "|")
		p(`axql_requests_total{endpoint=%q,code=%q} %d`, ep, code, requests[k])
	}

	p("# HELP axql_request_duration_seconds Request latency, by endpoint.")
	p("# TYPE axql_request_duration_seconds histogram")
	for _, ep := range sortedKeys(hists) {
		h := hists[ep]
		cum := int64(0)
		for i, ub := range latencyBuckets {
			cum += h.counts[i]
			p(`axql_request_duration_seconds_bucket{endpoint=%q,le="%g"} %d`, ep, ub, cum)
		}
		p(`axql_request_duration_seconds_bucket{endpoint=%q,le="+Inf"} %d`, ep, h.total)
		p(`axql_request_duration_seconds_sum{endpoint=%q} %g`, ep, h.sum)
		p(`axql_request_duration_seconds_count{endpoint=%q} %d`, ep, h.total)
	}

	p("# HELP axql_inflight_queries Queries currently evaluating.")
	p("# TYPE axql_inflight_queries gauge")
	p("axql_inflight_queries %d", s.admission.inflight.Load())
	p("# HELP axql_admission_rejected_total Queries rejected with 429 at saturation.")
	p("# TYPE axql_admission_rejected_total counter")
	p("axql_admission_rejected_total %d", s.admission.rejected.Load())

	p("# HELP axql_result_cache_hits_total Rankings served from the result cache.")
	p("# TYPE axql_result_cache_hits_total counter")
	p("axql_result_cache_hits_total %d", hits)
	p("# HELP axql_result_cache_misses_total Result-cache lookups that missed.")
	p("# TYPE axql_result_cache_misses_total counter")
	p("axql_result_cache_misses_total %d", misses)
	p("# HELP axql_result_cache_entries Rankings currently cached.")
	p("# TYPE axql_result_cache_entries gauge")
	p("axql_result_cache_entries %d", entries)

	p("# HELP axql_queries_evaluated_total Queries that ran the evaluation engine (cache misses).")
	p("# TYPE axql_queries_evaluated_total counter")
	p("axql_queries_evaluated_total %d", queries)

	if len(nodes) > 0 {
		p("# HELP axql_cluster_partial_total Cluster gathers answered degraded (at least one node failed).")
		p("# TYPE axql_cluster_partial_total counter")
		p("axql_cluster_partial_total %d", partials)
		nodeCols := []struct {
			name, help string
			value      func(nodeCounters) string
		}{
			{"axql_cluster_node_requests_total", "Cluster searches that queried the node.",
				func(nc nodeCounters) string { return fmt.Sprintf("%d", nc.requests) }},
			{"axql_cluster_node_errors_total", "Node queries that failed after retries.",
				func(nc nodeCounters) string { return fmt.Sprintf("%d", nc.errors) }},
			{"axql_cluster_node_retries_total", "Wire-level re-issues of node queries.",
				func(nc nodeCounters) string { return fmt.Sprintf("%d", nc.retries) }},
			{"axql_cluster_node_bound_stops_total", "Node streams cut short by the gatherer's cost bound.",
				func(nc nodeCounters) string { return fmt.Sprintf("%d", nc.boundStops) }},
			{"axql_cluster_node_latency_seconds_total", "Total node stream time, first byte to done line.",
				func(nc nodeCounters) string { return fmt.Sprintf("%g", nc.latencySum) }},
		}
		for _, c := range nodeCols {
			p("# HELP %s %s", c.name, c.help)
			p("# TYPE %s counter", c.name)
			for _, node := range sortedKeys(nodes) {
				p("%s{node=%q} %s", c.name, node, c.value(nodes[node]))
			}
		}
	}

	execCounters := []struct {
		name, help string
		value      int64
	}{
		{"axql_exec_rounds_total", "Plan streams opened, one per schema-driven evaluation.", int64(ex.Rounds)},
		{"axql_exec_planned_total", "Second-level queries pulled from plan streams.", int64(ex.Planned)},
		{"axql_exec_deduped_total", "Pulled second-level queries skipped for repeating an earlier one's skeleton signature.", int64(ex.Deduped)},
		{"axql_exec_executed_total", "Second-level queries executed.", int64(ex.Executed)},
		{"axql_exec_empty_total", "Executed second-level queries that retrieved no root.", int64(ex.EmptyExecuted)},
		{"axql_exec_schema_fetches_total", "Schema-index fetches during planning.", int64(ex.SchemaFetches)},
		{"axql_exec_secondary_fetches_total", "I_sec posting fetches during execution.", int64(ex.SecondaryFetches)},
		{"axql_exec_postings_scanned_total", "Instance-posting entries touched.", int64(ex.PostingsScanned)},
		{"axql_exec_results_emitted_total", "Distinct result roots delivered by the engine.", int64(ex.ResultsEmitted)},
		{"axql_planner_switched_total", "Auto shards whose schema-driven run spent its budget and fell back to the direct algorithm.", int64(ex.Switched)},
		{"axql_backend_fetches_total", "Posting fetches through a stored backend's cache layer.", int64(ex.BackendFetches)},
		{"axql_backend_cache_hits_total", "Stored-backend fetches served from the shared LRU.", int64(ex.BackendHits)},
		{"axql_backend_bytes_decoded_total", "Raw posting bytes decoded from storage.", ex.BackendBytesDecoded},
	}
	for _, c := range execCounters {
		p("# HELP %s %s", c.name, c.help)
		p("# TYPE %s counter", c.name)
		p("%s %d", c.name, c.value)
	}

	execTimes := []struct {
		name, help string
		d          time.Duration
	}{
		{"axql_exec_plan_seconds_total", "Total time planning second-level queries.", ex.PlanTime},
		{"axql_exec_exec_seconds_total", "Total time executing second-level queries.", ex.ExecTime},
	}
	for _, c := range execTimes {
		p("# HELP %s %s", c.name, c.help)
		p("# TYPE %s counter", c.name)
		p("%s %g", c.name, c.d.Seconds())
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(b.String()))
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
