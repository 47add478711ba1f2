package main

import (
	"strings"

	"approxql"
	"approxql/internal/querygen"
)

// Sizing constants. They are part of the benchmark's definition: changing one
// changes what every metric means, so a change here re-baselines everything.
// README.md explains how each was chosen.
const (
	// dataScale is the share of the paper's collection (1M elements, 10M
	// words) both fixtures index.
	dataScale = 0.1
	// dataSeed seeds the stored collection (the paper collection of
	// internal/bench), corpusSeed the multi-document one. The collections
	// are fixtures; --seed drives the request stream, not the data.
	dataSeed   = 1
	corpusSeed = 7
	// catalogueSeed seeds the query catalogue (the year of the paper, as in
	// internal/bench). The catalogue is a fixture too: its expected
	// rankings are committed under expected/.
	catalogueSeed = 2002
	// corpusTemplates is the number of document types in the serve-*
	// collection.
	corpusTemplates = 8
	// corpusShards is the shard count of the serve-* bundle.
	corpusShards = 4
	// clusterNodes is the shard-node count of serve-cluster.
	clusterNodes = 2
	// serveRenamings is the number of renamings the server-side cost model
	// carries per pool label.
	serveRenamings = 5
	// allNMaxK caps the schema-driven engine at n = ∞ in the traced
	// ladder, as EXPERIMENTS.md documents for the paper's n = ∞ points.
	allNMaxK = 4096
	// setupRepeats is how often a run sets up; setup_s is the median.
	setupRepeats = 3
	// maxClients bounds C = min(nproc, maxClients).
	maxClients = 4

	// popularityZipf is the skew with which serve-cached draws its requests
	// from the pool.
	popularityZipf = 1.3
	// warmSeconds is how long serve-cached runs its loop untimed before
	// measuring, so that the result cache holds what the popularity keeps
	// hot rather than the verify pass's leftovers.
	warmSeconds = 1.0

	// openLoopRate is the committed arrival rate, in requests per second,
	// of the open loop the traced run of serve-cached adds: about 60 % of
	// serve-http's closed-loop throughput on the reference machine, which
	// with 93 % cache hits keeps one core about a third busy.
	openLoopRate = 400.0
	// openLoopInflight times C is the number of connections of the open
	// loop, and so the most requests it keeps in flight: independent users
	// do not queue behind each other's cache misses, as they would on C
	// connections. It equals the server's default admission bound
	// (4×GOMAXPROCS evaluations) on machines of up to four cores, so no
	// request is refused.
	openLoopInflight = 4
	// genLateLimitMS aborts a traced serve-cached run whose open loop's
	// generator dispatched its p99 request later than this after it was
	// due. The generator shares the process's two cores with the server
	// and runs 2–4 ms late at p99 for it; the limit catches a generator,
	// or a machine, that is not fit to measure with.
	genLateLimitMS = 50.0
	// p99MinSamples is the fewest samples a reported p99 may rest on.
	p99MinSamples = 1000
)

// workload is one traffic mix. All share the metric names of BENCHMARK.json.
type workload struct {
	name string
	// serve workloads go through HTTP against the 4-shard corpus bundle;
	// the others call Database.Search on the single-shard stored bundle.
	serve bool
	// cluster puts two shard nodes and a gatherer in front of the bundle.
	cluster bool
	// cacheOff disables the server's result cache (shipped default: 1024).
	cacheOff bool
	// zipf makes every caller draw its requests from the pool with zipf
	// popularity; otherwise each walks the whole pool in a shuffled order.
	// The traced run of such a workload adds an open loop at openLoopRate.
	zipf bool
	// strategy is what every query asks for.
	strategy approxql.Strategy
	patterns []querygen.Pattern
	// renamings are the per-query cost-model levels of the stored
	// workloads (serve workloads use one server-side model).
	renamings []int
	// perClass is the number of catalogue queries per (pattern, renamings)
	// class; every query enters the pool once per value of nValues.
	perClass int
	nValues  []int
	// tieTolerant accepts any members of a tie at the n-th cost.
	// Database.Search with the schema-driven strategy keeps the members
	// its second-level queries reach first, the other surfaces the ones
	// with the smallest (doc, root); both are best-n answers.
	tieTolerant bool
	// lruLo and lruHi bound backend.lru_hit_frac in the traced run of a
	// stored workload; a run outside the band measured something else
	// than the workload claims and is aborted.
	lruLo, lruHi float64
}

// unreachableTerms lists, for the stored and the serve fixture, the terms
// whose postings the persisted I_text B+tree cannot find again:
// storage.DB.Check reports "key above separator bound" on the freshly
// written file (a leaf split that falls back to the other half misplaces a
// cell that did not fit, which happens where mid-size postings cluster — and
// the generator's term names sort by frequency). A stored direct evaluation
// touching one silently loses results, so the catalogue redraws such queries
// and never renames to such a term. The lists are a function of the fixtures
// alone; TestUnreachableTermsListed rescans them. They go when
// internal/storage is repaired.
var unreachableTerms = [2]map[string]bool{
	termSet("t000140 t000200"),
	termSet("t000015 t000016 t000017 t000018 t000019 t000021 t000027 t000029 t000036 t000042 t000047 t000051 " +
		"t000052 t000054 t000056 t000057 t000058 t000059 t000061 t000062 t000063 t000067 t000068 t000072 " +
		"t000075 t000076 t000077 t000078 t000080 t000081 t000082 t000084 t000085 t000087 t000089 t000092 " +
		"t000098 t000108 t000124 t000131 t000231 t000232 t000263 t000280 t000299 t000308"),
}

func termSet(list string) map[string]bool {
	m := make(map[string]bool)
	for _, t := range strings.Fields(list) {
		m[t] = true
	}
	return m
}

// unreachable returns the fixture's list.
func (w workload) unreachable() map[string]bool {
	if w.serve {
		return unreachableTerms[1]
	}
	return unreachableTerms[0]
}

var allPatterns = append(append([]querygen.Pattern{}, querygen.PaperPatterns...), querygen.ExtendedPatterns...)

var workloads = []workload{
	{
		name: "topn-schema", strategy: approxql.SchemaDriven,
		patterns: querygen.PaperPatterns, renamings: []int{0, 5, 10},
		perClass: 6, nValues: []int{1, 10}, tieTolerant: true,
		lruLo: 0.45, lruHi: 1,
	},
	{
		name: "alln-direct", strategy: approxql.Direct,
		patterns: querygen.PaperPatterns, renamings: []int{0, 5, 10},
		perClass: 40, nValues: []int{0},
		lruLo: 0, lruHi: 0.6,
	},
	{
		name: "serve-http", serve: true, cacheOff: true, strategy: approxql.Auto,
		patterns: allPatterns, perClass: 14, nValues: []int{1, 10, 100},
	},
	{
		name: "serve-cached", serve: true, zipf: true, strategy: approxql.Auto,
		patterns: allPatterns, perClass: 120, nValues: []int{1, 10, 100},
	},
	{
		name: "serve-cluster", serve: true, cluster: true, cacheOff: true, strategy: approxql.Auto,
		patterns: allPatterns, perClass: 14, nValues: []int{1, 10, 100},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
