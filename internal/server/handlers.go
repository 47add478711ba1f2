package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"approxql"
	"approxql/internal/lang"
)

// maxRequestBody bounds the /query request body; approXQL queries are
// short, so anything past this is a client error, not a real query.
const maxRequestBody = 1 << 20

// QueryRequest is the POST /query body.
type QueryRequest struct {
	// Query is the approXQL query string (required).
	Query string `json:"query"`
	// N is the number of results wanted (required, 1..Config.MaxN;
	// larger values are clamped to the cap).
	N int `json:"n"`
	// Strategy forces an evaluation strategy: "auto" (default),
	// "direct", or "schema".
	Strategy string `json:"strategy,omitempty"`
	// TimeoutMS overrides the server's default evaluation deadline,
	// capped at Config.MaxTimeout.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Render asks for the matching subtrees, not only roots and paths.
	Render bool `json:"render,omitempty"`
}

// QueryResult is one ranked answer in a QueryResponse.
type QueryResult struct {
	// Rank is the 1-based position in the ranking.
	Rank int `json:"rank"`
	// Doc identifies the corpus document containing the match.
	Doc approxql.DocID `json:"doc"`
	// DocName is the document's external name, when the corpus has one.
	DocName string `json:"doc_name,omitempty"`
	// Root identifies the matching subtree's root node within the
	// document's shard.
	Root approxql.NodeID `json:"root"`
	// Cost is the transformation cost; 0 is an exact match.
	Cost int64 `json:"cost"`
	// Path is the label-type path of the root, e.g. "<root>/catalog/cd".
	Path string `json:"path"`
	// Subtree is the rendered subtree, present only when requested.
	Subtree string `json:"subtree,omitempty"`
}

// QueryResponse is the POST /query response.
type QueryResponse struct {
	// Query echoes the canonical form of the evaluated query.
	Query string `json:"query"`
	// Fingerprint is the canonical parse-tree fingerprint (the result-
	// cache key component exposed for client-side caching).
	Fingerprint string `json:"fingerprint"`
	// N is the effective result bound after clamping.
	N int `json:"n"`
	// Strategy is the strategy that produced the ranking: the forced one,
	// or — for "auto" requests — the planner's pick (the majority pick
	// across shards of a corpus).
	Strategy string `json:"strategy"`
	// Planner reports how Strategy was chosen: "auto" (planner-resolved)
	// or "forced" (requested by the client).
	Planner string `json:"planner"`
	// EstimatedCount is the planner's approximate-result-count estimate
	// for the query, summed across shards.
	EstimatedCount int `json:"estimated_count"`
	// Cached reports that the ranking was served from the result cache.
	Cached bool `json:"cached"`
	// TookMS is the server-side handling time in milliseconds.
	TookMS float64 `json:"took_ms"`
	// Partial reports a degraded cluster gather: at least one shard node
	// failed, and its documents are missing from the ranking. Only a
	// gatherer sets it; partial rankings are never cached.
	Partial bool `json:"partial,omitempty"`
	// Nodes is the per-node detail of a cluster gather, failed nodes
	// included. Cache hits omit it — the detail describes one wire
	// exchange, not the cached ranking.
	Nodes []QueryNode `json:"nodes,omitempty"`
	// Results is the ranking, ascending by cost.
	Results []QueryResult `json:"results"`
}

// QueryNode is one shard node's part of a cluster gather.
type QueryNode struct {
	// Node is the node's base URL ("local" for the gatherer's own
	// corpus); Error its failure, when it had one.
	Node  string `json:"node"`
	Error string `json:"error,omitempty"`
	// Hits counts hits the node delivered into the merge; Stopped
	// reports the gatherer cut the node short once its stream could no
	// longer improve the ranking.
	Hits    int  `json:"hits"`
	Stopped bool `json:"stopped,omitempty"`
	// Retries counts wire-level re-issues, BoundPushes mid-stream cutoff
	// updates delivered to the node.
	Retries     int     `json:"retries,omitempty"`
	BoundPushes int     `json:"bound_pushes,omitempty"`
	LatencyMS   float64 `json:"latency_ms"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
	// Position is the byte offset of a syntax error in the query string,
	// present only for parse failures.
	Position *int `json:"position,omitempty"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	start := time.Now()

	var req QueryRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("invalid request body: %v", err), nil)
		return
	}
	if req.Query == "" {
		writeError(w, http.StatusBadRequest, "missing field: query", nil)
		return
	}
	if req.N <= 0 {
		writeError(w, http.StatusBadRequest, "n must be positive", nil)
		return
	}
	n := min(req.N, s.cfg.MaxN)

	strategy, err := parseStrategy(req.Strategy)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error(), nil)
		return
	}

	// Parsing doubles as validation: a malformed query is reported with
	// its position before it costs an admission slot, and the fingerprint
	// of a well-formed one keys the result cache.
	fingerprint, err := approxql.Fingerprint(req.Query)
	if err != nil {
		var syn *lang.SyntaxError
		if errors.As(err, &syn) {
			writeError(w, http.StatusBadRequest, err.Error(), &syn.Pos)
			return
		}
		writeError(w, http.StatusBadRequest, err.Error(), nil)
		return
	}
	canonical, _ := approxql.Parse(req.Query)

	// The query log records every well-formed arrival before the cache
	// and admission checks: it holds the traffic the server received, not
	// only the queries it chose to evaluate.
	if s.cfg.QueryLog != nil {
		s.recordQuery(canonical, n, strategy, fingerprint)
	}

	key := cacheKey(fingerprint, n, strategy)
	if s.cluster != nil && req.Render {
		// A gatherer's cached rankings embed the rendered subtrees the
		// nodes returned (the gatherer holds no documents to render
		// from), so render participates in its cache key. The corpus
		// path renders per response from the shared ranking.
		key += "/r"
	}
	if rk, ok := s.cache.get(key); ok {
		s.writeRanking(w, r, req, canonical, fingerprint, n, rk, true, start, false, nil)
		return
	}

	// Cache misses are the expensive path: only they pass through
	// admission control.
	if !s.admission.tryAcquire() {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "server saturated: too many queries in flight", nil)
		return
	}
	defer s.admission.release()

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = min(time.Duration(req.TimeoutMS)*time.Millisecond, s.cfg.MaxTimeout)
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	if s.testHookSearch != nil {
		s.testHookSearch()
	}

	opts := []approxql.QueryOption{approxql.WithStrategy(strategy)}
	if s.cfg.Model != nil {
		opts = append(opts, approxql.WithCostModel(s.cfg.Model))
	}
	var qm approxql.QueryMetrics
	opts = append(opts, approxql.WithMetrics(&qm))

	if s.cluster != nil {
		res, err := s.cluster.SearchContext(ctx, req.Query, n, req.Render, opts...)
		s.metrics.mergeExec(&qm)
		s.metrics.observeCluster(res.Nodes, res.Partial)
		if err != nil {
			var ne *approxql.NodeError
			switch {
			case errors.As(err, &ne):
				// Fail-closed: one dead node breaks the whole query.
				writeError(w, http.StatusBadGateway, err.Error(), nil)
			case errors.Is(err, context.DeadlineExceeded):
				writeError(w, http.StatusGatewayTimeout,
					fmt.Sprintf("query exceeded its %v deadline", timeout), nil)
			case errors.Is(err, context.Canceled):
				writeError(w, 499, "client closed request", nil)
			default:
				writeError(w, http.StatusInternalServerError, err.Error(), nil)
			}
			return
		}
		rk := cachedRanking{cluster: res.Hits}
		s.plannerFields(&rk, strategy, &qm, req.Query, n, opts)
		if !res.Partial {
			// A partial ranking is the degraded answer of this moment;
			// caching it would keep serving the outage after recovery.
			s.cache.put(key, rk)
		}
		s.writeRanking(w, r, req, canonical, fingerprint, n, rk, false, start, res.Partial, queryNodes(res.Nodes))
		return
	}

	results, err := s.corpus.SearchContext(ctx, req.Query, n, opts...)
	s.metrics.mergeExec(&qm)
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			writeError(w, http.StatusGatewayTimeout,
				fmt.Sprintf("query exceeded its %v deadline", timeout), nil)
		case errors.Is(err, context.Canceled):
			// The client went away; nobody reads this response, but the
			// status keeps the access log honest.
			writeError(w, 499, "client closed request", nil)
		default:
			writeError(w, http.StatusInternalServerError, err.Error(), nil)
		}
		return
	}

	rk := cachedRanking{results: results}
	s.plannerFields(&rk, strategy, &qm, req.Query, n, opts)
	s.cache.put(key, rk)
	s.writeRanking(w, r, req, canonical, fingerprint, n, rk, false, start, false, nil)
}

// plannerFields fills a ranking's strategy/planner/estimate view: the
// planner's pick for Auto requests, the forced strategy otherwise.
func (s *Server) plannerFields(rk *cachedRanking, strategy approxql.Strategy, qm *approxql.QueryMetrics, query string, n int, opts []approxql.QueryOption) {
	if strategy == approxql.Auto {
		rk.planner = "auto"
		rk.strategy = qm.PlannerStrategy
		rk.estimate = qm.PlannerEstimate
		if rk.strategy == "" {
			// Every shard was pruned: nothing ran, report the trivial pick.
			rk.strategy = approxql.Direct.String()
		}
		return
	}
	rk.planner = "forced"
	rk.strategy = strategy.String()
	// The planner did not run; its estimate is still cheap (count-only
	// probes) and keeps the response shape uniform. A gatherer has no
	// corpus to probe and reports what the nodes' done lines summed.
	rk.estimate = qm.PlannerEstimate
	if s.corpus != nil {
		if dec, err := s.corpus.Plan(query, n, opts...); err == nil {
			rk.estimate = dec.Estimate
		}
	}
}

// queryNodes converts the facade's per-node statuses to the response
// shape.
func queryNodes(nodes []approxql.NodeStatus) []QueryNode {
	out := make([]QueryNode, len(nodes))
	for i, st := range nodes {
		out[i] = QueryNode{
			Node:        st.Node,
			Error:       st.Err,
			Hits:        st.Hits,
			Stopped:     st.Stopped,
			Retries:     st.Retries,
			BoundPushes: st.BoundPushes,
			LatencyMS:   st.LatencyMS,
		}
	}
	return out
}

func (s *Server) writeRanking(w http.ResponseWriter, _ *http.Request, req QueryRequest,
	canonical, fingerprint string, n int, rk cachedRanking, cached bool, start time.Time,
	partial bool, nodes []QueryNode) {

	resp := QueryResponse{
		Query:          canonical,
		Fingerprint:    fingerprint,
		N:              n,
		Strategy:       rk.strategy,
		Planner:        rk.planner,
		EstimatedCount: rk.estimate,
		Cached:         cached,
		TookMS:         float64(time.Since(start).Microseconds()) / 1000,
		Partial:        partial,
		Nodes:          nodes,
	}
	if s.cluster != nil {
		// Gathered hits carry their presentation fields from the owning
		// nodes; there is no local corpus to resolve them against.
		resp.Results = make([]QueryResult, len(rk.cluster))
		for i, res := range rk.cluster {
			resp.Results[i] = QueryResult{
				Rank:    i + 1,
				Doc:     res.Doc,
				DocName: res.DocName,
				Root:    res.Root,
				Cost:    int64(res.Cost),
				Path:    res.Path,
				Subtree: res.Subtree,
			}
		}
		writeJSON(w, http.StatusOK, resp)
		return
	}
	results := rk.results
	resp.Results = make([]QueryResult, len(results))
	for i, res := range results {
		doc := s.corpus.Doc(res.Doc)
		qr := QueryResult{
			Rank:    i + 1,
			Doc:     res.Doc,
			DocName: doc.Name(),
			Root:    res.Root,
			Cost:    int64(res.Cost),
			Path:    doc.Path(res.Root),
		}
		if req.Render {
			qr.Subtree = doc.RenderNode(res.Root)
		}
		resp.Results[i] = qr
	}
	writeJSON(w, http.StatusOK, resp)
}

// HealthResponse is the GET /healthz body.
type HealthResponse struct {
	Status string `json:"status"`
	Nodes  int    `json:"nodes"`
	// Docs and Shards describe the served corpus (a plain database is one
	// shard).
	Docs     int   `json:"docs"`
	Shards   int   `json:"shards"`
	Inflight int64 `json:"inflight"`
	// ClusterNodes is a gatherer's per-node probe detail; Status is then
	// "degraded" when any node is unreachable. The aggregate fields above
	// sum over the reachable nodes.
	ClusterNodes []NodeHealth `json:"cluster_nodes,omitempty"`
}

// NodeHealth is one shard node's health-probe outcome in a gatherer's
// /healthz response.
type NodeHealth struct {
	Node   string `json:"node"`
	Status string `json:"status"` // "ok" or "unreachable"
	Error  string `json:"error,omitempty"`
	Docs   int    `json:"docs"`
	Shards int    `json:"shards"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.cluster != nil {
		s.handleClusterHealthz(w, r)
		return
	}
	st := s.corpus.Stats()
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:   "ok",
		Nodes:    st.Nodes,
		Docs:     st.Docs,
		Shards:   st.Shards,
		Inflight: s.admission.inflight.Load(),
	})
}

// handleClusterHealthz probes every shard node and reports the aggregate
// plus per-node detail: "ok" with every node reachable, "degraded"
// otherwise (queries still answer, flagged partial).
func (s *Server) handleClusterHealthz(w http.ResponseWriter, r *http.Request) {
	probes := s.cluster.Health(r.Context(), 0)
	resp := HealthResponse{
		Status:   "ok",
		Inflight: s.admission.inflight.Load(),
	}
	for _, p := range probes {
		nh := NodeHealth{Node: p.Node, Status: "ok", Docs: p.Docs, Shards: p.Shards}
		if p.Err != "" {
			nh.Status = "unreachable"
			nh.Error = p.Err
			resp.Status = "degraded"
		} else {
			resp.Docs += p.Docs
			resp.Shards += p.Shards
			resp.Nodes += p.TreeNodes
		}
		resp.ClusterNodes = append(resp.ClusterNodes, nh)
	}
	writeJSON(w, http.StatusOK, resp)
}

func parseStrategy(name string) (approxql.Strategy, error) {
	switch name {
	case "", "auto":
		return approxql.Auto, nil
	case "direct":
		return approxql.Direct, nil
	case "schema":
		return approxql.SchemaDriven, nil
	}
	return approxql.Auto, fmt.Errorf("unknown strategy %q (want auto, direct, or schema)", name)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string, pos *int) {
	writeJSON(w, status, ErrorResponse{Error: msg, Position: pos})
}
