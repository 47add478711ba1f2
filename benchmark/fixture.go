package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"approxql"
	"approxql/internal/datagen"
	"approxql/internal/server"
)

// generateDocs produces the fixture collection of a workload as XML
// documents. The stored workloads index the paper collection (one deep
// template, as internal/bench uses). The serve workloads index a collection
// of many small documents of corpusTemplates types — each type a small,
// shallow template with little repetition and short text fields — in
// round-robin order, so that every shard holds every type. Generation is not
// part of setup_s.
func generateDocs(serve bool, scale float64) ([][]byte, error) {
	cfg := datagen.Paper(dataSeed).Scale(scale)
	types := 1
	if serve {
		types = corpusTemplates
		cfg.VocabularySize = 10_000
		cfg.TargetElements /= types
		cfg.TargetWords = 3 * cfg.TargetElements
		cfg.TemplateNodes = 12
		cfg.MaxDepth = 4
		cfg.MaxRepeat = 2
	}
	perType := make([][][]byte, types)
	most := 0
	for t := range perType {
		if serve {
			cfg.Seed = corpusSeed + int64(t)
		}
		g, err := datagen.New(cfg)
		if err != nil {
			return nil, err
		}
		// The generator stops emitting text once the word budget is
		// spent; stopping there too keeps every document alike.
		for !g.Done() && g.Words() < cfg.TargetWords {
			var buf bytes.Buffer
			if err := g.WriteDocumentXML(&buf); err != nil {
				return nil, err
			}
			perType[t] = append(perType[t], buf.Bytes())
		}
		most = max(most, len(perType[t]))
	}
	var docs [][]byte
	for i := 0; i < most; i++ {
		for _, d := range perType {
			if i < len(d) {
				docs = append(docs, d[i])
			}
		}
	}
	return docs, nil
}

func totalBytes(docs [][]byte) int64 {
	var n int64
	for _, d := range docs {
		n += int64(len(d))
	}
	return n
}

// shardDocs is the CorpusBuilder shard capacity that splits n documents
// into corpusShards shards.
func shardDocs(n int) int { return (n + corpusShards - 1) / corpusShards }

func buildMemoryDB(docs [][]byte) (*approxql.Database, error) {
	b := approxql.NewBuilder(nil)
	for _, d := range docs {
		if err := b.AddXML(bytes.NewReader(d)); err != nil {
			return nil, err
		}
	}
	return b.Database()
}

func buildMemoryCorpus(docs [][]byte) (*approxql.Corpus, error) {
	cb := approxql.NewCorpusBuilder(nil)
	cb.SetShardSize(shardDocs(len(docs)))
	for i, d := range docs {
		if _, err := cb.AddDocument(fmt.Sprintf("doc%05d.xml", i), bytes.NewReader(d)); err != nil {
			return nil, err
		}
	}
	return cb.Corpus()
}

// target is the surface a workload fires at, set up through the public API
// with the shipped zero-value options only.
type target struct {
	// db serves the stored workloads.
	db *approxql.Database
	// corpus is what the serve-http and serve-cached server answers from;
	// url is the base URL requests go to (the gatherer's on serve-cluster).
	corpus *approxql.Corpus
	url    string
	// singleURL is a cache-off single-process server over the same bundle,
	// started only for the traced ladder of serve-cluster, whose
	// cluster.self_us is the gatherer's time above it.
	singleURL string
	// bundleBytes is the size of every file of the persisted bundle.
	bundleBytes int64
	closers     []func() error
}

// Close tears the target down in reverse order of construction and waits
// for every server to have stopped.
func (t *target) Close() error {
	var first error
	for i := len(t.closers) - 1; i >= 0; i-- {
		if err := t.closers[i](); err != nil && first == nil {
			first = err
		}
	}
	t.closers = nil
	return first
}

func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n, nil
}

// setupStored is the set-up of the stored workloads: parse the XML, build
// indexes and schema, persist a single-shard bundle into dir, open it, and
// answer one query from it (the stored backend builds its schema lazily, so
// the first answer is where set-up ends).
func setupStored(dir string, docs [][]byte, firstQuery string) (*target, error) {
	mem, err := buildMemoryDB(docs)
	if err != nil {
		return nil, err
	}
	coll := filepath.Join(dir, "c.axql")
	f, err := os.Create(coll)
	if err != nil {
		return nil, err
	}
	if _, err := mem.WriteTo(f); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	post, sec := filepath.Join(dir, "c.post"), filepath.Join(dir, "c.sec")
	if err := mem.PersistIndexes(post, sec); err != nil {
		return nil, err
	}
	bundle := filepath.Join(dir, "c.bundle")
	if err := approxql.WriteBundle(bundle, coll, post, sec); err != nil {
		return nil, err
	}
	db, err := approxql.OpenBundle(bundle, nil)
	if err != nil {
		return nil, err
	}
	t := &target{db: db, closers: []func() error{db.Close}}
	if _, err := db.Search(firstQuery, 1); err != nil {
		t.Close()
		return nil, err
	}
	if t.bundleBytes, err = dirBytes(dir); err != nil {
		t.Close()
		return nil, err
	}
	return t, nil
}

// startServer serves cfg on a loopback listener and returns its base URL
// and a closer that drains it and waits for Serve to return.
func startServer(cfg server.Config) (string, func() error, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return "", nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	stop := func() error {
		// Every client has its answers by now, so there is nothing to
		// drain; the deadline only cuts short the five seconds an
		// http.Server grants a connection that was dialed (by a
		// gatherer's transport, speculatively) but never used.
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		defer cancel()
		err := srv.Shutdown(ctx)
		if errors.Is(err, context.DeadlineExceeded) {
			err = nil
		}
		if serr := <-done; err == nil {
			err = serr
		}
		return err
	}
	return "http://" + l.Addr().String(), stop, nil
}

// setupServe is the set-up of the serve workloads: parse the documents into
// a 4-shard corpus, persist the bundle into dir, open it, start the
// server(s) on loopback, and answer one query over HTTP.
func setupServe(dir string, docs [][]byte, w workload, model *approxql.CostModel, firstQuery string, withSingle bool) (*target, error) {
	mem, err := buildMemoryCorpus(docs)
	if err != nil {
		return nil, err
	}
	bundle := filepath.Join(dir, "c.bundle")
	if err := mem.SaveBundle(bundle); err != nil {
		return nil, err
	}
	t := &target{}
	fail := func(err error) (*target, error) {
		t.Close()
		return nil, err
	}
	serve := func(cfg server.Config) (string, error) {
		cfg.Model = model
		url, stop, err := startServer(cfg)
		if err == nil {
			t.closers = append(t.closers, stop)
		}
		return url, err
	}
	cache := 0
	if w.cacheOff {
		cache = -1
	}
	if w.cluster {
		subsets := make([][]int, clusterNodes)
		for si := 0; si < mem.NumShards(); si++ {
			subsets[si%clusterNodes] = append(subsets[si%clusterNodes], si)
		}
		var urls []string
		for _, subset := range subsets {
			c, err := approxql.Open(bundle, &approxql.OpenOptions{Shards: subset})
			if err != nil {
				return fail(err)
			}
			t.closers = append(t.closers, c.Close)
			url, err := serve(server.Config{Corpus: c, ShardNode: true})
			if err != nil {
				return fail(err)
			}
			urls = append(urls, url)
		}
		cl, err := approxql.NewCluster(urls, nil, nil)
		if err != nil {
			return fail(err)
		}
		if t.url, err = serve(server.Config{Cluster: cl, CacheEntries: cache}); err != nil {
			return fail(err)
		}
	}
	if !w.cluster || withSingle {
		c, err := approxql.Open(bundle, nil)
		if err != nil {
			return fail(err)
		}
		t.closers = append(t.closers, c.Close)
		t.corpus = c
		url, err := serve(server.Config{Corpus: c, CacheEntries: cache})
		if err != nil {
			return fail(err)
		}
		if w.cluster {
			t.singleURL = url
		} else {
			t.url = url
		}
	}
	cl := newHTTPCaller(t.url)
	defer cl.close()
	if _, err := cl.post(poolEntry{query: firstQuery, n: 1}, w.strategy); err != nil {
		return fail(err)
	}
	if t.bundleBytes, err = dirBytes(dir); err != nil {
		return fail(err)
	}
	return t, nil
}
