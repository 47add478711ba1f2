package main

// This file holds every call below the public facade: the staged build that
// times each set-up layer, the traced backend wrapper, and the engine rungs
// of the ladder. A change to an internal signature is repaired here.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"approxql"
	"approxql/internal/backend"
	"approxql/internal/eval"
	"approxql/internal/exec"
	"approxql/internal/index"
	"approxql/internal/lang"
	"approxql/internal/plan"
	"approxql/internal/schema"
	"approxql/internal/storage"
	"approxql/internal/xmltree"
)

// stageTimes are the set-up layers, timed around each module's public build
// function.
type stageTimes struct {
	parse, indexBuild, schemaBuild, persist, open time.Duration
	bundleBytes                                   int64
}

// shardFiles names one shard's persisted files.
type shardFiles struct{ coll, post, sec string }

// stagedBuild runs the set-up of a bundle layer by layer: the documents are
// split into shards contiguous shards (1 for the stored workloads), and for
// each shard the tree is parsed, the indexes and the schema built, all three
// persisted, and the stored backend opened with its schema. It returns the
// summed stage times and leaves the files in dir.
func stagedBuild(dir string, docs [][]byte, shards int) (stageTimes, []shardFiles, error) {
	var st stageTimes
	var files []shardFiles
	per := (len(docs) + shards - 1) / shards
	for s := 0; s*per < len(docs); s++ {
		part := docs[s*per : min((s+1)*per, len(docs))]
		t0 := time.Now()
		b := xmltree.NewBuilder(nil)
		for _, d := range part {
			if err := b.AddDocument(bytes.NewReader(d)); err != nil {
				return st, nil, err
			}
		}
		tree, err := b.Finish()
		if err != nil {
			return st, nil, err
		}
		st.parse += time.Since(t0)

		t0 = time.Now()
		ix := index.Build(tree)
		st.indexBuild += time.Since(t0)

		t0 = time.Now()
		sch := schema.Build(tree)
		st.schemaBuild += time.Since(t0)

		f := shardFiles{
			coll: filepath.Join(dir, fmt.Sprintf("s%d.axql", s)),
			post: filepath.Join(dir, fmt.Sprintf("s%d.post", s)),
			sec:  filepath.Join(dir, fmt.Sprintf("s%d.sec", s)),
		}
		t0 = time.Now()
		if err := writeTree(f.coll, tree); err != nil {
			return st, nil, err
		}
		if err := persist(f.post, func(db *storage.DB) error { return index.Save(ix, db) }); err != nil {
			return st, nil, err
		}
		if err := persist(f.sec, sch.SaveSec); err != nil {
			return st, nil, err
		}
		st.persist += time.Since(t0)

		t0 = time.Now()
		be, err := openBackend(f)
		if err != nil {
			return st, nil, err
		}
		be.Schema()
		st.open += time.Since(t0)
		if err := be.Close(); err != nil {
			return st, nil, err
		}
		files = append(files, f)
	}
	var err error
	st.bundleBytes, err = dirBytes(dir)
	return st, files, err
}

func writeTree(path string, tree *xmltree.Tree) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := tree.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func persist(path string, save func(*storage.DB) error) error {
	db, err := storage.Open(path, nil)
	if err != nil {
		return err
	}
	if err := save(db); err != nil {
		db.Close()
		return err
	}
	return db.Close()
}

// openBackend opens a stored backend the way the facade does for a bundle:
// default insertion costs, the default posting LRU, no memory mapping.
func openBackend(f shardFiles) (*backend.Stored, error) {
	r, err := os.Open(f.coll)
	if err != nil {
		return nil, err
	}
	tree, err := xmltree.ReadTree(r, nil)
	r.Close()
	if err != nil {
		return nil, err
	}
	return backend.OpenStoredOptions(tree, f.post, f.sec,
		backend.StoredOptions{CacheEntries: backend.DefaultCacheEntries})
}

// fetchStats is what a traced backend saw during one rung.
type fetchStats struct {
	fetches, hits int
	// dur is the time in all fetches, missDur in those that missed.
	dur, missDur time.Duration
	bytesDecoded int64
	pageReads    int64
	// missed keeps the postings of fetches that went to storage, for the
	// decode replay.
	missed [][]xmltree.NodeID
	// first and last bracket the fetches, for the backend.fetch span.
	first, last time.Time
}

// add accumulates another rung's counters and times.
func (st *fetchStats) add(o fetchStats) {
	st.fetches += o.fetches
	st.hits += o.hits
	st.dur += o.dur
	st.missDur += o.missDur
	st.bytesDecoded += o.bytesDecoded
	st.pageReads += o.pageReads
}

// tracedBackend times every posting fetch of a stored backend from outside
// and tells LRU hits from misses by the backend's own cache counters. The
// embedded backend answers everything else (tree, schema, counts).
type tracedBackend struct {
	*backend.Stored
	mu sync.Mutex
	st fetchStats
}

func (t *tracedBackend) take() fetchStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.st
	t.st = fetchStats{}
	return st
}

func (t *tracedBackend) observe(fetch func() ([]xmltree.NodeID, error)) ([]xmltree.NodeID, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	before := t.Stored.CacheStats()
	t0 := time.Now()
	post, err := fetch()
	t1 := time.Now()
	after := t.Stored.CacheStats()
	st := &t.st
	if st.fetches == 0 {
		st.first = t0
	}
	st.last = t1
	st.fetches++
	st.dur += t1.Sub(t0)
	st.bytesDecoded += after.BytesDecoded - before.BytesDecoded
	st.pageReads += after.PageReads - before.PageReads
	if after.Hits > before.Hits {
		st.hits++
	} else {
		st.missDur += t1.Sub(t0)
		if len(post) > 0 {
			st.missed = append(st.missed, post)
		}
	}
	return post, err
}

func (t *tracedBackend) Struct(name string) ([]xmltree.NodeID, error) {
	return t.observe(func() ([]xmltree.NodeID, error) { return t.Stored.Struct(name) })
}

func (t *tracedBackend) Text(term string) ([]xmltree.NodeID, error) {
	return t.observe(func() ([]xmltree.NodeID, error) { return t.Stored.Text(term) })
}

func (t *tracedBackend) SecInstances(c schema.NodeID) ([]xmltree.NodeID, error) {
	return t.observe(func() ([]xmltree.NodeID, error) { return t.Stored.SecInstances(c) })
}

func (t *tracedBackend) SecTermInstances(c schema.NodeID, term string) ([]xmltree.NodeID, error) {
	return t.observe(func() ([]xmltree.NodeID, error) { return t.Stored.SecTermInstances(c, term) })
}

func (t *tracedBackend) SecInstancesUpTo(c schema.NodeID, bound xmltree.NodeID) ([]xmltree.NodeID, error) {
	return t.observe(func() ([]xmltree.NodeID, error) { return t.Stored.SecInstancesUpTo(c, bound) })
}

func (t *tracedBackend) SecTermInstancesUpTo(c schema.NodeID, term string, bound xmltree.NodeID) ([]xmltree.NodeID, error) {
	return t.observe(func() ([]xmltree.NodeID, error) { return t.Stored.SecTermInstancesUpTo(c, term, bound) })
}

var _ backend.Backend = (*tracedBackend)(nil)

// replayDecode decodes the encoded form of every posting a rung fetched from
// storage once more, timing the codec alone. A bounded fetch is replayed on
// the entries it returned.
func replayDecode(missed [][]xmltree.NodeID, scratch []xmltree.NodeID) (time.Duration, int, []xmltree.NodeID, error) {
	var dur time.Duration
	entries := 0
	for _, post := range missed {
		raw := index.EncodePosting(post)
		t0 := time.Now()
		out, err := index.DecodePostingInto(scratch[:0], raw)
		dur += time.Since(t0)
		if err != nil {
			return 0, 0, scratch, err
		}
		scratch = out
		entries += len(out)
	}
	return dur, entries, scratch, nil
}

// engineRungs are the two backends the ladder's engine rungs run on, opened
// apart from the database under test and from each other so that each
// posting LRU sees one engine's key sequence, as in the workload.
type engineRungs struct {
	eval, kbest *tracedBackend
	scratch     []xmltree.NodeID
}

func openEngineRungs(f shardFiles) (*engineRungs, error) {
	a, err := openBackend(f)
	if err != nil {
		return nil, err
	}
	b, err := openBackend(f)
	if err != nil {
		a.Close()
		return nil, err
	}
	a.Schema()
	b.Schema()
	return &engineRungs{eval: &tracedBackend{Stored: a}, kbest: &tracedBackend{Stored: b}}, nil
}

func (r *engineRungs) Close() error {
	err := r.eval.Close()
	if kerr := r.kbest.Close(); err == nil {
		err = kerr
	}
	return err
}

// rungResult is one engine rung on one query.
type rungResult struct {
	start, end time.Time
	allocs     uint64
	fetch      fetchStats
	decode     time.Duration
	decoded    int
	results    int
	// arenaEntries is the direct evaluator's arena use; m the
	// schema-driven engine's counters.
	arenaEntries int
	m            exec.Metrics
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// expandQuery is the lang rung: parse and expand under the cost model.
func expandQuery(query string, model *approxql.CostModel) (*lang.Expanded, time.Duration, error) {
	t0 := time.Now()
	q, err := lang.Parse(query)
	if err != nil {
		return nil, 0, err
	}
	x := lang.Expand(q, model)
	return x, time.Since(t0), nil
}

// decide is the plan rung. It reports whether the planner picks the
// schema-driven strategy.
func (r *engineRungs) decide(x *lang.Expanded, n int) (bool, time.Duration) {
	t0 := time.Now()
	d := plan.Decide(r.kbest.Schema(), r.kbest.Stored, x, n)
	return d.Strategy == plan.SchemaDriven, time.Since(t0)
}

// runEval is the eval.bestn rung: the direct algorithm, sequential.
func (r *engineRungs) runEval(x *lang.Expanded, n int) (rungResult, error) {
	var out rungResult
	r.eval.take()
	m0 := mallocs()
	out.start = time.Now()
	ev := eval.New(r.eval.Tree(), r.eval)
	ev.Parallelism = 1
	res, err := ev.BestN(x, n)
	out.arenaEntries = ev.Stats().ArenaEntries
	ev.Release()
	out.end = time.Now()
	out.allocs = mallocs() - m0
	out.results = len(res)
	out.fetch = r.eval.take()
	if err != nil {
		return out, err
	}
	out.decode, out.decoded, r.scratch, err = replayDecode(out.fetch.missed, r.scratch)
	return out, err
}

// runKBest is the kbest.bestn rung: the schema-driven engine (internal/exec
// over internal/kbest), sequential, with the facade's default schedule. At
// n = ∞ it keeps the documented MaxK cap.
func (r *engineRungs) runKBest(x *lang.Expanded, n int) (rungResult, error) {
	var out rungResult
	cfg := exec.Config{N: n, Parallelism: 1, Metrics: &out.m}
	if n <= 0 {
		cfg.MaxK = allNMaxK
	}
	r.kbest.take()
	m0 := mallocs()
	out.start = time.Now()
	seen := 0
	err := exec.New(r.kbest.Schema(), r.kbest, cfg).Run(context.Background(), x, func(exec.Item) bool {
		seen++
		return true
	})
	out.end = time.Now()
	out.allocs = mallocs() - m0
	out.results = seen
	out.fetch = r.kbest.take()
	if err != nil {
		return out, err
	}
	out.decode, out.decoded, r.scratch, err = replayDecode(out.fetch.missed, r.scratch)
	return out, err
}
