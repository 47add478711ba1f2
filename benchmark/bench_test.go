package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"

	"approxql/internal/backend"
)

// shrunk is a run small enough for `go test`: a hundredth of the paper
// collection, two queries per class, one-second phases.
func shrunk(t *testing.T, name string, trace bool) config {
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	return config{
		root: "..", out: t.TempDir(), workload: w, seed: 7, seconds: 1, trace: trace,
		scale: 0.01, perClass: 2, minSamples: 50, log: io.Discard,
	}
}

func readSpecT(t *testing.T) *spec {
	sp, err := readSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// Every workload reports every metric of BENCHMARK.json once, under a name
// the contract allows, in both modes; the traced run's ladder has
// non-negative self times and well-formed spans.
func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	sp := readSpecT(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(sp.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, benchmark/ defines %d", len(sp.Workloads), len(workloads))
	}
	for _, sl := range sp.Workloads {
		for _, trace := range []bool{false, true} {
			cfg := shrunk(t, sl.Name, trace)
			res, err := runOne(cfg, sp)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", sl.Name, trace, err)
			}
			list := sp.EndToEnd
			if trace {
				list = sp.PerLayer
			}
			if len(res.Metrics) != len(list) {
				t.Errorf("%s trace=%v: %d metrics reported, %d listed", sl.Name, trace, len(res.Metrics), len(list))
			}
			for _, m := range list {
				got, ok := res.Metrics[m.Name]
				switch {
				case !nameRE.MatchString(m.Name):
					t.Errorf("metric name %q is outside the contract", m.Name)
				case !ok:
					t.Errorf("%s trace=%v: %s missing", sl.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", sl.Name, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s: %s = %v", sl.Name, m.Name, got.Value)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", sl.Name, m.Name, got.Value)
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", sl.Name, trace, res.Correct, res.Failed, res.Attempted)
			}
			if trace {
				checkTraceFile(t, filepath.Join(cfg.out, "trace-"+sl.Name+".json"))
			}
		}
	}
}

func checkTraceFile(t *testing.T, path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if tf.Steps == 0 || len(tf.Spans) == 0 {
		t.Errorf("%s: %d steps, %d spans", path, tf.Steps, len(tf.Spans))
	}
	for rung, self := range tf.SelfUS {
		if self < 0 {
			t.Errorf("%s: self time of %s is %v", path, rung, self)
		}
	}
	type key struct {
		step int
		name string
	}
	byStep := make(map[key]span)
	for _, s := range tf.Spans {
		if s.End < s.Start {
			t.Errorf("%s: span %s of step %d ends before it starts", path, s.Name, s.Step)
		}
		byStep[key{s.Step, s.Name}] = s
	}
	for _, s := range tf.Spans {
		if s.Parent == "" {
			continue
		}
		if _, ok := byStep[key{s.Step, s.Parent}]; !ok {
			t.Errorf("%s: span %s of step %d has no parent %s", path, s.Name, s.Step, s.Parent)
		}
	}
}

// The pool, its expected rankings and every request stream are functions of
// the fixtures and the seed alone.
func TestPoolAndStreamArePureFunctionsOfTheSeed(t *testing.T) {
	for _, name := range []string{"topn-schema", "serve-cached"} {
		cfg := shrunk(t, name, false)
		a, err := prepare(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := prepare(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.pool.entries, b.pool.entries) {
			t.Errorf("%s: two preparations drew different pools", name)
		}
		if !reflect.DeepEqual(a.pool.expectedFile(cfg.workload, cfg.scale), b.pool.expectedFile(cfg.workload, cfg.scale)) {
			t.Errorf("%s: two preparations computed different expected rankings", name)
		}
		for _, q := range a.pool.queries {
			if len(q.expected) == 0 {
				t.Errorf("%s: pool query %s has an empty expected ranking", name, q.text)
			}
		}
		s1 := openStream(a.pool, 3, 1000, time.Second)
		s2 := openStream(b.pool, 3, 1000, time.Second)
		s3 := openStream(a.pool, 4, 1000, time.Second)
		if !reflect.DeepEqual(s1, s2) {
			t.Errorf("%s: one seed, two streams", name)
		}
		if reflect.DeepEqual(s1, s3) {
			t.Errorf("%s: two seeds, one stream", name)
		}
		wa, wb := walker(a.pool, cfg.workload.zipf, 3), walker(b.pool, cfg.workload.zipf, 3)
		for i := 0; i < 3*len(a.pool.entries); i++ {
			if wa() != wb() {
				t.Fatalf("%s: one seed, two walks (request %d)", name, i)
			}
		}
	}
}

// A wrong expected ranking is counted, both by the verify pass and in the
// timed phase, and shows in answered_frac.
func TestCorruptedDigestCountsAsFailure(t *testing.T) {
	sp := readSpecT(t)
	for _, name := range []string{"topn-schema", "serve-http"} {
		cfg := shrunk(t, name, false)
		cfg.corrupt = true
		res, err := runOne(cfg, sp)
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct || res.Failed < 2 {
			t.Errorf("%s: corrupted expectation gave correct=%v failed=%d", name, res.Correct, res.Failed)
		}
		if f := res.Metrics["answered_frac"].Value; f >= 1 {
			t.Errorf("%s: answered_frac = %v with %d failures", name, f, res.Failed)
		}
	}
}

// quartiles follows Python's statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles of 1,2,4,8,16 = %v, %v; Python gives 1.5, 12", q1, q3)
	}
}

// The committed lists of unreachable terms cover what the fixtures' stored
// indexes lose today. It scans the full-size fixtures, so -short skips it.
func TestUnreachableTermsListed(t *testing.T) {
	if testing.Short() {
		t.Skip("scans the full-size fixtures")
	}
	for _, serve := range []bool{false, true} {
		docs, err := generateDocs(serve, dataScale)
		if err != nil {
			t.Fatal(err)
		}
		shards := 1
		if serve {
			shards = corpusShards
		}
		_, files, err := stagedBuild(t.TempDir(), docs, shards)
		if err != nil {
			t.Fatal(err)
		}
		listed := workload{serve: serve}.unreachable()
		for _, f := range files {
			be, err := openBackend(f)
			if err != nil {
				t.Fatal(err)
			}
			mem := backend.NewMemory(be.Tree())
			for _, name := range be.Tree().Names.Strings() {
				got, _ := be.Struct(name)
				want, _ := mem.Struct(name)
				if len(got) != len(want) {
					t.Errorf("serve=%v: stored I_struct loses element name %s, which the catalogue cannot avoid", serve, name)
				}
			}
			for _, term := range be.Tree().Terms.Strings() {
				got, _ := be.Text(term)
				want, _ := mem.Text(term)
				if len(got) != len(want) && !listed[term] {
					t.Errorf("serve=%v: stored I_text loses term %s, which unreachableTerms does not list", serve, term)
				}
			}
			if err := be.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
