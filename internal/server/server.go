// Package server implements axqlserve: a concurrent HTTP/JSON query service
// over one shared approxql.Database.
//
// The paper's schema-driven best-n semantics (Section 7) is an interactive
// access pattern — small n, incremental enumeration, results ranked by
// transformation cost — and this package turns the library into the service
// that pattern assumes. The endpoints:
//
//	POST /query        evaluate an approXQL query, ranked JSON response
//	GET  /healthz      liveness and readiness probe
//	GET  /metrics      Prometheus text format: request counters, latency
//	                   histograms, result-cache and backend-cache counters,
//	                   aggregated execution metrics
//	GET  /debug/pprof  the standard Go profiling endpoints
//
// A server can also take part in a cluster (docs/CLUSTER.md). In
// shard-node mode (Config.ShardNode) it additionally serves the cluster
// wire protocol — POST /shard/query streaming ascending-cost hits as
// ndjson, POST /shard/bound accepting mid-stream cutoff updates, and
// GET /shard/stats — over its slice of a corpus bundle. As a gatherer
// (Config.Cluster) its /query fans out over remote shard nodes and merges
// their streams into one exact global ranking, answering degraded
// ("partial": true) instead of failing when a node dies.
//
// Hardening for real traffic: per-request context deadlines wired into
// SearchContext, a semaphore-based admission controller that answers 429
// with Retry-After at saturation, a normalized-query result LRU keyed by
// canonical parse-tree fingerprint + n + strategy, structured request
// logging with a slow-query threshold, and graceful shutdown that drains
// in-flight queries.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync"
	"time"

	"approxql"
)

// Config tunes a Server. The zero value of every field selects a
// production-safe default.
type Config struct {
	// Corpus is the shared sharded corpus queries run against. Responses
	// carry each hit's document id and name. A single Database is served
	// as its one-shard corpus (Database.Corpus).
	Corpus *approxql.Corpus
	// Cluster makes the server a gatherer: /query fans over the
	// cluster's shard nodes and merges their streams, carrying partial
	// and per-node detail in the response. Exactly one of Corpus and
	// Cluster must be set.
	Cluster *approxql.Cluster
	// ShardNode additionally exposes the cluster wire protocol —
	// POST /shard/query (ndjson hit stream), POST /shard/bound, and
	// GET /shard/stats — so a gatherer can use this server as one node.
	// It requires a Corpus target.
	ShardNode bool
	// Model supplies the delete/rename costs applied to every query; nil
	// allows insertions only (exact containment with context ranking).
	Model *approxql.CostModel

	// MaxInflight bounds concurrently evaluating queries; requests beyond
	// the bound are rejected with 429 and a Retry-After header. Zero
	// means 4×GOMAXPROCS; negative disables admission control.
	MaxInflight int
	// DefaultTimeout is the evaluation deadline applied when a request
	// does not set one. Zero means 10s.
	DefaultTimeout time.Duration
	// MaxTimeout caps the deadline a request may ask for. Zero means 60s.
	MaxTimeout time.Duration
	// MaxN caps the number of results one request may ask for (requests
	// above the cap are clamped, n <= 0 is rejected: the "all results"
	// form is not offered over the network). Zero means 1000.
	MaxN int

	// CacheEntries bounds the result cache; zero means 1024, negative
	// disables result caching.
	CacheEntries int

	// SlowQuery is the latency past which a completed query is logged at
	// warning level. Zero means 1s; negative disables slow-query logging.
	SlowQuery time.Duration
	// Logger receives structured request logs; nil discards them.
	Logger *slog.Logger

	// QueryLog, when set, receives one JSONL line per well-formed /query
	// request (see queryRecord): arrival offset since server start,
	// canonical query, n, strategy, and fingerprint. Every arrival is
	// logged — cache hits and admission rejections included — because the
	// log records the traffic the server *saw*. Writes are serialized by
	// the server; the writer needs no locking of its own.
	QueryLog io.Writer
}

func (c Config) withDefaults() Config {
	if c.MaxInflight == 0 {
		c.MaxInflight = 4 * runtime.GOMAXPROCS(0)
	}
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	if c.MaxTimeout == 0 {
		c.MaxTimeout = 60 * time.Second
	}
	if c.MaxN == 0 {
		c.MaxN = 1000
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 1024
	}
	if c.SlowQuery == 0 {
		c.SlowQuery = time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.New(discardHandler{})
	}
	return c
}

// Server is the HTTP query service. Create one with New, expose it through
// Handler (or Serve), and stop it with Shutdown. All methods are safe for
// concurrent use.
type Server struct {
	cfg Config
	// corpus is the evaluation target, Config.Corpus. It is nil on a
	// gatherer, whose target is cluster instead.
	corpus    *approxql.Corpus
	cluster   *approxql.Cluster
	bounds    *boundRegistry
	admission *admission
	cache     *resultCache
	metrics   *metrics
	started   time.Time

	// logMu serializes QueryLog writes across request goroutines.
	logMu sync.Mutex

	mu   sync.Mutex
	http *http.Server
	// unused tracks the connections that have not sent a request yet, so
	// Shutdown can close them instead of waiting on them.
	unused unusedConns

	// testHookSearch, when non-nil, runs inside the admitted section just
	// before evaluation — the seam load and drain tests use to hold a
	// request in flight deterministically.
	testHookSearch func()
}

// New returns a Server for cfg. It fails when no evaluation target is
// configured, or more than one.
func New(cfg Config) (*Server, error) {
	if (cfg.Corpus == nil) == (cfg.Cluster == nil) {
		return nil, errors.New("server: exactly one of Config.Corpus and Config.Cluster is required")
	}
	if cfg.ShardNode && cfg.Cluster != nil {
		return nil, errors.New("server: Config.ShardNode needs a Corpus target, not a Cluster")
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		corpus:    cfg.Corpus,
		cluster:   cfg.Cluster,
		bounds:    newBoundRegistry(),
		admission: newAdmission(cfg.MaxInflight),
		cache:     newResultCache(cfg.CacheEntries),
		metrics:   newMetrics(),
		started:   time.Now(),
	}
	return s, nil
}

// queryRecord is one line of the -record query log (docs/SERVER.md).
type queryRecord struct {
	AtMS        int64  `json:"at_ms"`
	Query       string `json:"query"`
	N           int    `json:"n"`
	Strategy    string `json:"strategy,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
}

// recordQuery appends one arrival to the configured query log.
func (s *Server) recordQuery(query string, n int, strategy approxql.Strategy, fingerprint string) {
	raw, err := json.Marshal(queryRecord{
		AtMS:        time.Since(s.started).Milliseconds(),
		Query:       query,
		N:           n,
		Strategy:    strategy.String(),
		Fingerprint: fingerprint,
	})
	if err == nil {
		s.logMu.Lock()
		_, err = s.cfg.QueryLog.Write(append(raw, '\n'))
		s.logMu.Unlock()
	}
	if err != nil {
		s.cfg.Logger.Warn("query log write failed", "err", err)
	}
}

// Handler returns the root handler serving every endpoint.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", s.instrument("/query", s.handleQuery))
	mux.HandleFunc("GET /healthz", s.instrument("/healthz", s.handleHealthz))
	mux.HandleFunc("GET /metrics", s.instrument("/metrics", s.handleMetrics))
	if s.cfg.ShardNode {
		mux.HandleFunc("POST /shard/query", s.instrument("/shard/query", s.handleShardQuery))
		mux.HandleFunc("POST /shard/bound", s.instrument("/shard/bound", s.handleShardBound))
		mux.HandleFunc("GET /shard/stats", s.instrument("/shard/stats", s.handleShardStats))
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve accepts connections on l until Shutdown. It returns the error of
// the underlying http.Server; after a clean Shutdown that error is
// http.ErrServerClosed, which Serve maps to nil.
func (s *Server) Serve(l net.Listener) error {
	hs := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ConnState:         s.unused.track,
	}
	hs.RegisterOnShutdown(s.unused.closeAll)
	s.mu.Lock()
	s.http = hs
	s.mu.Unlock()
	err := hs.Serve(l)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown stops accepting new connections and drains in-flight queries:
// it returns once every active request has completed or ctx fires,
// whichever comes first. Connections that never sent a request are closed
// at once; net/http alone would wait five seconds on each.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	hs := s.http
	s.mu.Unlock()
	if hs == nil {
		return nil
	}
	return hs.Shutdown(ctx)
}

// unusedConns is the set of connections in http.StateNew: accepted, but
// without a first request yet. Gatherer transports dial such connections
// speculatively.
type unusedConns struct {
	mu      sync.Mutex
	conns   map[net.Conn]struct{}
	closing bool
}

// track is the http.Server ConnState hook. A connection leaves the set on
// its first transition; an idle one never re-enters it.
func (u *unusedConns) track(c net.Conn, state http.ConnState) {
	if state == http.StateIdle {
		return
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	switch {
	case state != http.StateNew:
		delete(u.conns, c)
	case u.closing:
		c.Close()
	default:
		if u.conns == nil {
			u.conns = make(map[net.Conn]struct{})
		}
		u.conns[c] = struct{}{}
	}
}

// closeAll closes every unused connection, and every one accepted later.
// http.Server.Shutdown runs it after closing its listeners.
func (u *unusedConns) closeAll() {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.closing = true
	for c := range u.conns {
		c.Close()
	}
	u.conns = nil
}

// InvalidateCache drops every cached result. Call it when the underlying
// database is swapped or its cost model changes; entries cached for the
// previous database can never be served afterwards.
func (s *Server) InvalidateCache() { s.cache.invalidate() }

// instrument wraps a handler with latency/status accounting and structured
// request logging.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(rw, r)
		elapsed := time.Since(start)
		s.metrics.observe(endpoint, rw.status, elapsed)
		s.logRequest(r, endpoint, rw.status, elapsed)
	}
}

// statusWriter records the status code a handler sent.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards streaming flushes to the wrapped writer: the shard-query
// handler commits its headers and tier boundaries mid-evaluation, and the
// gatherer's connect timeout only tolerates that when flushes actually
// reach the connection through this wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap exposes the wrapped writer so http.NewResponseController can
// reach the connection's controls through this wrapper.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// discardHandler is a slog.Handler that drops everything; it stands in for
// slog.DiscardHandler, which needs go 1.24.
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }
