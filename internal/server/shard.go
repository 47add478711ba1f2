package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"approxql"
	"approxql/internal/corpus"
	"approxql/internal/lang"
)

// This file implements the shard-node side of the cluster wire protocol
// (docs/CLUSTER.md): /shard/query answers with this node's best n hits for
// one query as ndjson in ascending (cost, doc, root) order, written once
// the node's shards have finished and flushed once;
// /shard/bound lowers the in-flight query's cost cutoff mid-stream;
// /shard/stats serves the node's corpus summary for gatherer health
// probes. The wire types live in internal/corpus next to their client.

// boundVar is one in-flight shard query's cost cutoff, shared between the
// streaming evaluation and /shard/bound. It only ever decreases — the
// monotone non-increasing contract exec.Config.Bound requires.
type boundVar struct {
	v atomic.Int64
}

func newBoundVar(wire int64) *boundVar {
	b := &boundVar{}
	b.v.Store(int64(corpus.BoundFromWire(wire)))
	return b
}

// current reads the cutoff in engine convention (Inf = none).
func (b *boundVar) current() approxql.Cost { return approxql.Cost(b.v.Load()) }

// lower tightens the cutoff; a looser or equal value is ignored.
func (b *boundVar) lower(wire int64) {
	c := int64(corpus.BoundFromWire(wire))
	for {
		cur := b.v.Load()
		if c >= cur || b.v.CompareAndSwap(cur, c) {
			return
		}
	}
}

// boundRegistry correlates /shard/bound updates with in-flight
// /shard/query streams by the gatherer-chosen qid.
type boundRegistry struct {
	mu sync.Mutex
	m  map[string]*boundVar
}

func newBoundRegistry() *boundRegistry {
	return &boundRegistry{m: make(map[string]*boundVar)}
}

func (r *boundRegistry) register(qid string, bv *boundVar) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.m[qid] = bv
}

func (r *boundRegistry) unregister(qid string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.m, qid)
}

// lower forwards a bound update; an unknown qid is not an error — the
// query may already have finished.
func (r *boundRegistry) lower(qid string, wire int64) {
	r.mu.Lock()
	bv := r.m[qid]
	r.mu.Unlock()
	if bv != nil {
		bv.lower(wire)
	}
}

func (s *Server) handleShardQuery(w http.ResponseWriter, r *http.Request) {
	var req corpus.ShardQueryRequest
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
	strategy, err := parseStrategy(req.Strategy)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error(), nil)
		return
	}
	// Validate before committing the stream: a malformed query must fail
	// with a status the gatherer can see, not a mid-stream error line.
	if _, err := approxql.Fingerprint(req.Query); err != nil {
		var syn *lang.SyntaxError
		if errors.As(err, &syn) {
			writeError(w, http.StatusBadRequest, err.Error(), &syn.Pos)
			return
		}
		writeError(w, http.StatusBadRequest, err.Error(), nil)
		return
	}

	// Admission rejections also happen pre-commit: the gatherer retries a
	// 429 like any failed attempt, with backoff.
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

	bv := newBoundVar(req.Bound)
	if req.QID != "" {
		s.bounds.register(req.QID, bv)
		defer s.bounds.unregister(req.QID)
	}

	// Commit the status and flush headers before evaluating: the
	// gatherer's connect timeout covers time-to-headers, so a healthy
	// node on a slow query must answer 200 immediately and report any
	// later failure on the done line. The ResponseController resolves
	// the real connection through instrument()'s wrapper via Unwrap.
	rc := http.NewResponseController(w)
	flush := func() { _ = rc.Flush() }
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flush()

	if s.testHookSearch != nil {
		s.testHookSearch()
	}

	opts := []approxql.QueryOption{approxql.WithStrategy(strategy)}
	if s.cfg.Model != nil {
		opts = append(opts, approxql.WithCostModel(s.cfg.Model))
	}
	var qm approxql.QueryMetrics
	opts = append(opts, approxql.WithMetrics(&qm))

	enc := json.NewEncoder(w)
	hits := 0
	err = s.corpus.ServeShard(ctx, req.Query, req.N, bv.current, req.Render, func(h approxql.ShardHit) bool {
		if err := enc.Encode(corpus.ShardHitLine{
			Doc:     h.Doc,
			Root:    h.Root,
			Cost:    int64(h.Cost),
			DocName: h.DocName,
			Path:    h.Path,
			Subtree: h.Subtree,
		}); err != nil {
			return false // client hung up (bound stop or gather abort)
		}
		hits++
		return true
	}, opts...)
	s.metrics.mergeExec(&qm)

	done := corpus.ShardDoneLine{Done: true, Hits: hits, NodeCounters: corpus.CountersOf(&qm)}
	if err != nil {
		done.Error = err.Error()
		if errors.Is(err, context.DeadlineExceeded) {
			done.Error = fmt.Sprintf("query exceeded its %v deadline", timeout)
		}
	}
	_ = enc.Encode(done)
	flush()
}

func (s *Server) handleShardBound(w http.ResponseWriter, r *http.Request) {
	var req corpus.ShardBoundRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("invalid request body: %v", err), nil)
		return
	}
	s.bounds.lower(req.QID, req.Bound)
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleShardStats(w http.ResponseWriter, _ *http.Request) {
	st := s.corpus.Stats()
	writeJSON(w, http.StatusOK, corpus.ShardStatsResponse{
		Docs:   st.Docs,
		Shards: st.Shards,
		Nodes:  st.Nodes,
	})
}
