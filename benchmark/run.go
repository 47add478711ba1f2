package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"approxql"
)

// config is one invocation.
type config struct {
	// root is the checkout: it holds BENCHMARK.json and benchmark/. out
	// receives bundles while a run lasts and the trace file.
	root, out string
	workload  workload
	seed      int64
	seconds   float64
	trace     bool
	// scale, perClass and minSamples default to the committed sizing; the
	// self-test shrinks them.
	scale      float64
	perClass   int
	minSamples int
	// writeExpected rewrites the committed expected rankings instead of
	// checking them.
	writeExpected bool
	// corrupt, a test hook, flips the expected top cost of one pool query
	// to show that a wrong answer is counted.
	corrupt bool
	// log receives the human-readable report.
	log io.Writer
}

// clients is C: the number of closed-loop callers, or of connections the
// open loop keeps in flight.
func clients() int { return min(runtime.NumCPU(), maxClients) }

func (c config) workDir() string {
	return filepath.Join(c.out, fmt.Sprintf("run-%s-%d", c.workload.name, os.Getpid()))
}

// committedSizing reports whether the run uses the sizing the expected
// rankings and the validity bands were committed for.
func (c config) committedSizing() bool { return c.scale == dataScale && c.perClass == 0 }

func (c config) phase(share float64) time.Duration {
	return time.Duration(c.seconds * share * float64(time.Second))
}

// prepared is everything a run needs that is not measured: the fixture
// documents, the pool with its expected rankings, and the outcome of
// comparing those with the committed ones.
type prepared struct {
	docs     [][]byte
	xmlBytes int64
	pool     *pool
	// first is the query whose answer ends set-up: the fixture's root
	// element name, which every document and so every shard contains.
	first string
	// expectedDiff counts catalogue queries whose oracle ranking differs
	// from the committed one.
	expectedDiff int
}

func prepare(cfg config) (*prepared, error) {
	w := cfg.workload
	docs, err := generateDocs(w.serve, cfg.scale)
	if err != nil {
		return nil, err
	}
	p := &prepared{docs: docs, xmlBytes: totalBytes(docs)}
	end := bytes.IndexByte(docs[0], '>')
	if len(docs[0]) < 3 || docs[0][0] != '<' || end < 2 {
		return nil, fmt.Errorf("fixture document does not start with an element")
	}
	p.first = string(docs[0][1:end])

	var o oracle
	var labels *approxql.Database
	if w.serve {
		if o.corpus, err = buildMemoryCorpus(docs); err != nil {
			return nil, err
		}
		// Every document instantiates one template, so a sample holds
		// every element name; terms come from the sample's vocabulary.
		if labels, err = buildMemoryDB(docs[:min(len(docs), 64)]); err != nil {
			return nil, err
		}
	} else {
		if o.db, err = buildMemoryDB(docs); err != nil {
			return nil, err
		}
		labels = o.db
	}
	if p.pool, err = buildPool(w, labels, o, cfg.perClass); err != nil {
		return nil, err
	}

	ef := p.pool.expectedFile(w, cfg.scale)
	path := expectedPath(cfg.root, w.name)
	if cfg.writeExpected {
		return p, writeExpected(path, ef)
	}
	p.expectedDiff, err = checkExpected(path, ef)
	if errors.Is(err, fs.ErrNotExist) && !cfg.committedSizing() {
		err = nil // nothing is committed for a shrunk run
	}
	if err != nil {
		return nil, err
	}
	if cfg.corrupt {
		q := &p.pool.queries[0]
		q.expected = append([]hit(nil), q.expected...)
		q.expected[0].cost++
	}
	return p, nil
}

func (cfg config) setup(dir string, p *prepared, withSingle bool) (*target, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if cfg.workload.serve {
		return setupServe(dir, p.docs, cfg.workload, p.pool.serverModel, p.first, withSingle)
	}
	return setupStored(dir, p.docs, p.first)
}

func (cfg config) callers(t *target, p *pool, n int) []caller {
	out := make([]caller, n)
	for i := range out {
		if cfg.workload.serve {
			out[i] = serveCaller{newHTTPCaller(t.url), cfg.workload.strategy}
		} else {
			out[i] = &storedCaller{db: t.db, p: p, strategy: cfg.workload.strategy}
		}
	}
	return out
}

// fullCheck is the verify pass's check of a whole ranking.
func (cfg config) fullCheck() func(*pool, poolEntry, answer) bool {
	if cfg.workload.tieTolerant {
		return checkTies
	}
	return checkFull
}

func closeAll(callers []caller) {
	for _, c := range callers {
		c.close()
	}
}

// walkers gives every caller its sequence of requests for one phase of a
// run.
func (cfg config) walkers(p *pool, n, phase int) []func() poolEntry {
	out := make([]func() poolEntry, n)
	for ci := range out {
		out[ci] = walker(p, cfg.workload.zipf, (cfg.seed+int64(phase))*1009+int64(ci))
	}
	return out
}

// loadPhase runs the workload's loop for dur, after warmSeconds of the same
// loop untimed where the result cache has to settle first.
func (cfg config) loadPhase(callers []caller, p *pool, phase int, dur time.Duration) (loadResult, error) {
	walkers := cfg.walkers(p, len(callers), phase)
	if cfg.workload.zipf && phase == 0 {
		warm := time.Duration(min(warmSeconds, cfg.seconds) * float64(time.Second))
		if _, err := runClosed(callers, p, walkers, warm); err != nil {
			return loadResult{}, err
		}
	}
	return runClosed(callers, p, walkers, dur)
}

// median returns the median of a few values.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

// outcome is a run's result before units are attached.
type outcome struct {
	attempted, failed int
	values            map[string]float64
}

// runEndToEnd is the untraced run: set up setupRepeats times, verify every
// pool entry's whole ranking through the surface under test, then measure
// the workload's loop for cfg.seconds.
func runEndToEnd(cfg config, p *prepared) (outcome, error) {
	work := cfg.workDir()
	defer os.RemoveAll(work)

	var setups []float64
	var tgt *target
	for i := 0; i < setupRepeats; i++ {
		dir := filepath.Join(work, fmt.Sprintf("setup%d", i))
		runtime.GC() // the previous repeat's garbage is not this one's cost
		t0 := time.Now()
		t, err := cfg.setup(dir, p, false)
		if err != nil {
			return outcome{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i == setupRepeats-1 {
			tgt = t
			break
		}
		if err := t.Close(); err != nil {
			return outcome{}, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return outcome{}, err
		}
	}
	defer tgt.Close()

	callers := cfg.callers(tgt, p.pool, clients())
	defer closeAll(callers)
	wrong, err := verifyPass(callers, p.pool, cfg.fullCheck())
	for i, e := range wrong {
		if i < 5 {
			a, _ := callers[0].call(e)
			fmt.Fprintf(cfg.log, "verify: wrong ranking for %s (n=%d): got %v want %v\n", e.query, e.n, a.hits, p.pool.want(e))
		}
	}
	if err != nil {
		fmt.Fprintf(cfg.log, "verify: %v\n", err)
	}

	runtime.GC()
	lr, err := cfg.loadPhase(callers, p.pool, 0, cfg.phase(1))
	if err != nil {
		return outcome{}, err
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return outcome{}, err
	}
	out := outcome{
		attempted: len(p.pool.queries) + len(p.pool.entries) + lr.attempted(),
		failed:    p.expectedDiff + len(wrong) + lr.failed(),
	}
	lat := lr.latencies()
	if len(lat) < cfg.minSamples {
		return outcome{}, fmt.Errorf("invalid run: %d samples in the measured phase, query_p99_ms needs %d", len(lat), cfg.minSamples)
	}
	n := float64(len(lat))
	out.values = map[string]float64{
		"setup_s":                   median(setups),
		"queries_per_s":             float64(lr.attempted()-lr.failed()) / lr.elapsed.Seconds(),
		"query_p50_ms":              quantile(lat, 0.5) * 1e3,
		"query_p99_ms":              quantile(lat, 0.99) * 1e3,
		"answered_frac":             1 - float64(out.failed)/float64(out.attempted),
		"cpu_ms_per_query":          lr.cost.cpu.Seconds() * 1e3 / n,
		"allocs_per_query":          float64(lr.cost.mallocs) / n,
		"alloc_kb_per_query":        float64(lr.cost.allocated) / 1024 / n,
		"peak_rss_mb":               rss,
		"bundle_bytes_per_xml_byte": float64(tgt.bundleBytes) / float64(p.xmlBytes),
	}
	fmt.Fprintf(cfg.log, "workload %s  seed %d  clients %d  GOMAXPROCS %d  pool %d entries over %d queries\n",
		cfg.workload.name, cfg.seed, clients(), runtime.GOMAXPROCS(0), len(p.pool.entries), len(p.pool.queries))
	fmt.Fprintf(cfg.log, "set-ups %.3f s  measured phase %.2f s  samples %d  failed %d of %d checks\n",
		setups, lr.elapsed.Seconds(), lr.attempted(), out.failed, out.attempted)
	return out, nil
}

// printValues lists measured values in the order of the spec.
func printValues(w io.Writer, list []specMetric, values map[string]float64) {
	for _, m := range list {
		if v, ok := values[m.Name]; ok {
			fmt.Fprintf(w, "  %-36s %14.4f %s\n", m.Name, v, m.Unit)
		}
	}
}
