package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"approxql"
	"approxql/internal/server"
)

// Serve is the axqlserve entry point: it opens a database (in-memory from
// XML, a collection file, or a bundle over stored indexes) or a multi-shard
// corpus bundle (built by axqlindex -shard-docs) and serves approXQL
// queries over HTTP until SIGINT/SIGTERM, then drains in-flight queries and
// exits. Corpus responses carry each hit's document id and name.
//
// Cluster modes (docs/CLUSTER.md): -shard-node serves the shard wire
// protocol over this process's slice of a bundle (-shards picks the
// slice); -nodes makes the process a gatherer whose /query fans out over
// the listed shard nodes — plus its own shards, when -db is also given.
func Serve(args []string, stdout, stderr io.Writer) error {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	return ServeContext(ctx, args, stdout, stderr)
}

// ServeContext is Serve bounded by a context: cancelling ctx triggers the
// same graceful drain as SIGTERM. Exposed for tests and embedders.
func ServeContext(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("axqlserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dbPath      = fs.String("db", "", "collection file or bundle manifest built by axqlindex (a bundle serves the stored indexes)")
		xml         = fs.String("xml", "", "comma-separated XML files to index on the fly")
		cache       = fs.Int("cache", 0, "posting-cache entries for stored indexes (0 = default 4096, negative disables caching)")
		mmap        = fs.Bool("mmap", false, "serve stored index pages from read-only memory mappings (falls back to the page cache where unavailable)")
		costs       = fs.String("costs", "", "cost file with delete/rename costs applied to every query")
		paper       = fs.Bool("papercosts", false, "use the paper's Section 6 example cost table")
		addr        = fs.String("addr", ":8080", "listen address")
		maxInflight = fs.Int("max-inflight", 0, "max queries evaluating at once; beyond it requests get 429 (0 = 4×GOMAXPROCS, -1 = unlimited)")
		timeout     = fs.Duration("timeout", 10*time.Second, "default per-query evaluation deadline")
		maxTimeout  = fs.Duration("max-timeout", 60*time.Second, "cap on the deadline a request may ask for")
		maxN        = fs.Int("max-n", 1000, "cap on the number of results one request may ask for")
		resultCache = fs.Int("result-cache", 1024, "result-cache entries (-1 disables caching)")
		slow        = fs.Duration("slow", time.Second, "log completed queries slower than this at warning level (-1ns disables)")
		drain       = fs.Duration("drain", 30*time.Second, "how long shutdown waits for in-flight queries")
		logFormat   = fs.String("log", "text", "request log format: text, json, or off")
		record      = fs.String("record", "", "append every well-formed /query arrival to this JSONL query log (format: docs/SERVER.md)")
		shardNode   = fs.Bool("shard-node", false, "also serve the cluster shard protocol (/shard/query, /shard/bound, /shard/stats) so a gatherer can use this process as one node")
		shards      = fs.String("shards", "", "comma-separated shard indices of the corpus bundle to serve, e.g. 0,3 (requires a corpus bundle -db; default all)")
		nodes       = fs.String("nodes", "", "comma-separated shard-node base URLs to gather /query over, e.g. http://h1:8080,http://h2:8080 (gatherer mode; with -db this process serves its own shards too)")
		failClosed  = fs.Bool("fail-closed", false, "fail whole queries when any cluster node fails, instead of answering partial rankings")
		nodeConnect = fs.Duration("node-connect-timeout", 2*time.Second, "per-node dial plus response-header timeout")
		nodeRead    = fs.Duration("node-read-timeout", 30*time.Second, "per-node idle timeout between hit-stream lines")
		nodeRetries = fs.Int("node-retries", 2, "re-issues of a node query that failed before delivering any hit (0 disables)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("usage: axqlserve [flags] (queries arrive over HTTP, not as arguments)")
	}

	fallback := approxql.NewCostModel()
	if *paper {
		fallback = approxql.PaperCostModel()
	}
	model, err := loadCosts(*costs, fallback)
	if err != nil {
		return err
	}

	logger, err := newLogger(*logFormat, stderr)
	if err != nil {
		return err
	}

	var queryLog *os.File
	if *record != "" {
		queryLog, err = os.OpenFile(*record, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer queryLog.Close()
	}

	srvCfg := server.Config{
		Model:          model,
		MaxInflight:    *maxInflight,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		MaxN:           *maxN,
		CacheEntries:   *resultCache,
		SlowQuery:      *slow,
		Logger:         logger,
	}
	if queryLog != nil {
		srvCfg.QueryLog = queryLog
	}
	if *shardNode && *nodes != "" {
		return fmt.Errorf("axqlserve: -shard-node and -nodes are mutually exclusive (a process is a shard node or a gatherer, not both)")
	}
	shardIdx, err := parseShardList(*shards)
	if err != nil {
		return err
	}

	var serving string
	switch {
	case *nodes != "":
		urls := splitList(*nodes)
		var local *approxql.Corpus
		if *dbPath != "" || *xml != "" {
			c, err := openCorpus(*dbPath, *xml, model, *cache, shardIdx, *mmap)
			if err != nil {
				return err
			}
			defer c.Close()
			local = c
		}
		retries := *nodeRetries
		if retries == 0 {
			retries = -1 // the facade's zero means "default"; the flag's means "off"
		}
		cl, err := approxql.NewCluster(urls, local, &approxql.ClusterOptions{
			ConnectTimeout: *nodeConnect,
			ReadTimeout:    *nodeRead,
			Retries:        retries,
			FailClosed:     *failClosed,
		})
		if err != nil {
			return err
		}
		srvCfg.Cluster = cl
		total := len(urls)
		if local != nil {
			total++
		}
		serving = fmt.Sprintf("gatherer over %d nodes", total)
	default:
		c, err := openCorpus(*dbPath, *xml, model, *cache, shardIdx, *mmap)
		if err != nil {
			return err
		}
		defer c.Close()
		srvCfg.Corpus = c
		srvCfg.ShardNode = *shardNode
		st := c.Stats()
		serving = fmt.Sprintf("%d nodes, %d docs, %d shards", st.Nodes, st.Docs, st.Shards)
		if *shardNode {
			serving += ", shard node"
		}
	}

	srv, err := server.New(srvCfg)
	if err != nil {
		return err
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// The resolved address line is the readiness signal scripts wait for
	// (and with -addr :0 the only way to learn the port).
	fmt.Fprintf(stderr, "axqlserve: listening on %s (%s)\n", l.Addr(), serving)

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(l) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	fmt.Fprintln(stderr, "axqlserve: shutting down, draining in-flight queries")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("axqlserve: drain incomplete: %w", err)
	}
	return <-errc
}

// parseShardList parses "-shards 0,3" into shard indices; empty means all.
func parseShardList(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("axqlserve: -shards: %q is not a shard index", f)
		}
		out = append(out, v)
	}
	return out, nil
}

// splitList splits a comma-separated flag, dropping empty fields.
func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// openCorpus opens any artifact (or on-the-fly XML) as a corpus: the
// served corpus, or a gatherer's local shards. Shards is rejected unless
// dbPath is a corpus bundle.
func openCorpus(dbPath, xml string, model *approxql.CostModel, cache int, shards []int, mmap bool) (*approxql.Corpus, error) {
	if dbPath != "" {
		return approxql.Open(dbPath, &approxql.OpenOptions{Model: model, CacheEntries: cache, Shards: shards, MMap: mmap})
	}
	if len(shards) > 0 {
		return nil, fmt.Errorf("axqlserve: -shards requires a corpus bundle -db")
	}
	db, err := openDatabase("", xml, model, cache, false)
	if err != nil {
		return nil, err
	}
	return db.Corpus()
}

func newLogger(format string, stderr io.Writer) (*slog.Logger, error) {
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(stderr, nil)), nil
	case "off":
		return nil, nil
	}
	return nil, fmt.Errorf("unknown log format %q (want text, json, or off)", format)
}
