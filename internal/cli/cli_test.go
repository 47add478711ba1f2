package cli

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const catalogXML = `<catalog>
  <cd><title>Piano Concerto</title><composer>Rachmaninov</composer></cd>
  <cd><title>Piano Sonata</title><composer>Beethoven</composer></cd>
  <mc><title>Concerto</title></mc>
</catalog>`

func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestGenProducesParsableXML(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "data.xml")
	var stderr bytes.Buffer
	err := Gen([]string{
		"-seed", "3", "-elements", "500", "-words", "2000",
		"-names", "10", "-vocab", "100", "-out", out,
	}, io.Discard, &stderr)
	if err != nil {
		t.Fatalf("Gen: %v", err)
	}
	if !strings.Contains(stderr.String(), "generated") {
		t.Errorf("summary missing: %q", stderr.String())
	}
	// The generated file must index cleanly.
	dbFile := filepath.Join(dir, "data.axdb")
	if err := Index([]string{"-out", dbFile, "-q", out}, io.Discard, io.Discard); err != nil {
		t.Fatalf("Index on generated data: %v", err)
	}
}

func TestGenRejectsBadFlags(t *testing.T) {
	if err := Gen([]string{"-skew", "0.5"}, io.Discard, io.Discard); err == nil {
		t.Error("bad skew accepted")
	}
	if err := Gen([]string{"-bogus"}, io.Discard, io.Discard); err == nil {
		t.Error("unknown flag accepted")
	}
}

func TestIndexAndQueryEndToEnd(t *testing.T) {
	dir := t.TempDir()
	xml := writeFile(t, dir, "catalog.xml", catalogXML)
	dbFile := filepath.Join(dir, "catalog.axdb")
	postings := filepath.Join(dir, "catalog.idx")
	secondary := filepath.Join(dir, "catalog.sec")

	var stderr bytes.Buffer
	err := Index([]string{
		"-out", dbFile, "-postings", postings, "-secondary", secondary, xml,
	}, io.Discard, &stderr)
	if err != nil {
		t.Fatalf("Index: %v", err)
	}
	if !strings.Contains(stderr.String(), "schema:") {
		t.Errorf("summary missing schema line: %q", stderr.String())
	}
	for _, f := range []string{dbFile, postings, secondary} {
		if st, err := os.Stat(f); err != nil || st.Size() == 0 {
			t.Errorf("output %s missing or empty", f)
		}
	}

	// Query the stored collection with the paper's costs.
	var out bytes.Buffer
	err = Query([]string{
		"-db", dbFile, "-papercosts", "-n", "3", `cd[title["concerto"]]`,
	}, &out, io.Discard)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("query printed %d lines:\n%s", len(lines), out.String())
	}
	if !strings.Contains(lines[0], "cost 0") || !strings.Contains(lines[0], "/catalog/cd") {
		t.Errorf("first result line = %q", lines[0])
	}
}

func TestQueryModes(t *testing.T) {
	dir := t.TempDir()
	xml := writeFile(t, dir, "catalog.xml", catalogXML)

	// -render prints subtrees.
	var out bytes.Buffer
	if err := Query([]string{"-xml", xml, "-papercosts", "-render", "-n", "1",
		`cd[title["concerto"]]`}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "<title>") {
		t.Errorf("render output missing subtree:\n%s", out.String())
	}

	// -explain prints second-level queries.
	out.Reset()
	if err := Query([]string{"-xml", xml, "-papercosts", "-explain",
		`cd[title["concerto"]]`}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "results") || !strings.Contains(out.String(), "cd[title[concerto]]") {
		t.Errorf("explain output:\n%s", out.String())
	}

	// -stream prints results incrementally.
	out.Reset()
	if err := Query([]string{"-xml", xml, "-papercosts", "-stream", "-n", "2",
		`cd[title["concerto"]]`}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(out.String(), "cost"); got != 2 {
		t.Errorf("stream printed %d results, want 2:\n%s", got, out.String())
	}

	// Explicit strategies agree.
	var direct, viaSchema bytes.Buffer
	if err := Query([]string{"-xml", xml, "-papercosts", "-strategy", "direct", "-n", "0",
		`cd[title["concerto"]]`}, &direct, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := Query([]string{"-xml", xml, "-papercosts", "-strategy", "schema", "-n", "0",
		`cd[title["concerto"]]`}, &viaSchema, io.Discard); err != nil {
		t.Fatal(err)
	}
	if direct.String() != viaSchema.String() {
		t.Errorf("strategies disagree:\n%s\nvs\n%s", direct.String(), viaSchema.String())
	}
}

// TestExplainPlannerHeader pins the format of the planner line that
// -explain prints before the second-level plans: consumers scrape the
// strategy, price, and planner fields from it.
func TestExplainPlannerHeader(t *testing.T) {
	dir := t.TempDir()
	xml := writeFile(t, dir, "catalog.xml", catalogXML)

	autoLine := regexp.MustCompile(`^planner strategy=(direct|schema) price=\d+ planner=auto$`)
	var out bytes.Buffer
	if err := Query([]string{"-xml", xml, "-papercosts", "-explain", "-n", "2",
		`cd[title["concerto"]]`}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	first, _, _ := strings.Cut(out.String(), "\n")
	if !autoLine.MatchString(first) {
		t.Errorf("auto planner header = %q, want match for %v", first, autoLine)
	}

	forcedLine := regexp.MustCompile(`^planner strategy=schema price=\d+ planner=forced$`)
	out.Reset()
	if err := Query([]string{"-xml", xml, "-papercosts", "-explain", "-strategy", "schema", "-n", "2",
		`cd[title["concerto"]]`}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	first, _, _ = strings.Cut(out.String(), "\n")
	if !forcedLine.MatchString(first) {
		t.Errorf("forced planner header = %q, want match for %v", first, forcedLine)
	}
}

func TestQueryHighlightAndStats(t *testing.T) {
	dir := t.TempDir()
	xml := writeFile(t, dir, "catalog.xml", catalogXML)

	var out bytes.Buffer
	if err := Query([]string{"-xml", xml, "-papercosts", "-highlight", "-n", "0",
		`cd[title["concerto"]]`}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "matched") || !strings.Contains(s, "renamed") {
		t.Errorf("highlight output lacks annotations:\n%s", s)
	}
	if !strings.Contains(s, "struct:cd → mc") {
		t.Errorf("highlight output lacks the cd→mc renaming:\n%s", s)
	}

	out.Reset()
	if err := Query([]string{"-xml", xml, "-stats"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "schema classes") || !strings.Contains(out.String(), "elements") {
		t.Errorf("stats output:\n%s", out.String())
	}

	// -stats with a query appends per-stage execution metrics.
	out.Reset()
	if err := Query([]string{"-xml", xml, "-papercosts", "-stats", "-n", "2",
		`cd[title["concerto"]]`}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	s = out.String()
	if !strings.Contains(s, "execution metrics") || !strings.Contains(s, "rounds") ||
		!strings.Contains(s, "executed") {
		t.Errorf("query metrics output:\n%s", s)
	}
}

func TestQueryParallelAndTimeout(t *testing.T) {
	dir := t.TempDir()
	xml := writeFile(t, dir, "catalog.xml", catalogXML)

	// Parallel and sequential runs print identical results.
	var seq, par bytes.Buffer
	for _, c := range []struct {
		w    *bytes.Buffer
		flag string
	}{{&seq, "1"}, {&par, "4"}} {
		if err := Query([]string{"-xml", xml, "-papercosts", "-parallel", c.flag,
			"-n", "0", `cd[title["concerto"]]`}, c.w, io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	if seq.String() != par.String() {
		t.Errorf("parallel output differs:\n%s\nvs\n%s", seq.String(), par.String())
	}

	// An absurdly small timeout aborts the query with a deadline error.
	err := Query([]string{"-xml", xml, "-papercosts", "-timeout", "1ns",
		`cd[title["concerto"]]`}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Errorf("timeout error = %v", err)
	}
}

func TestQueryWithCostFile(t *testing.T) {
	dir := t.TempDir()
	xml := writeFile(t, dir, "catalog.xml", catalogXML)
	costs := writeFile(t, dir, "costs.txt", "rename struct cd mc 4\n")
	var out bytes.Buffer
	if err := Query([]string{"-xml", xml, "-costs", costs, "-n", "0",
		`cd[title["concerto"]]`}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "/catalog/mc") {
		t.Errorf("cost file renaming ignored:\n%s", out.String())
	}
}

func TestQueryAutoCosts(t *testing.T) {
	dir := t.TempDir()
	xml := writeFile(t, dir, "catalog.xml", `<catalog>
  <cd><title>Piano Concerto</title><composer>Rachmaninov</composer></cd>
  <mc><title>Concerto Grosso</title><composer>Handel</composer></mc>
  <dvd><title>Piano Recital</title><performer>Argerich</performer></dvd>
</catalog>`)
	var out bytes.Buffer
	if err := Query([]string{"-xml", xml, "-autocosts", "-n", "0",
		`cd[title["concerto"]]`}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	// The derived model should surface the MC as an approximate result.
	if !strings.Contains(out.String(), "/catalog/mc") {
		t.Errorf("autocosts found no approximate results:\n%s", out.String())
	}
	// Conflicting cost sources are rejected.
	if err := Query([]string{"-xml", xml, "-autocosts", "-papercosts", "cd"},
		io.Discard, io.Discard); err == nil {
		t.Error("-autocosts with -papercosts accepted")
	}
}

func TestQueryErrors(t *testing.T) {
	dir := t.TempDir()
	xml := writeFile(t, dir, "catalog.xml", catalogXML)
	cases := [][]string{
		{},                                       // no query
		{"-xml", xml},                            // no query
		{`cd[title["x"]]`},                       // no data source
		{"-xml", xml, "cd["},                     // syntax error
		{"-xml", xml, "-strategy", "warp", "cd"}, // bad strategy
		{"-db", filepath.Join(dir, "missing.axdb"), "cd"},
		{"-xml", xml, "-costs", filepath.Join(dir, "missing.txt"), "cd"},
	}
	for _, args := range cases {
		if err := Query(args, io.Discard, io.Discard); err == nil {
			t.Errorf("Query(%v) succeeded, want error", args)
		}
	}
}

func TestIndexErrors(t *testing.T) {
	dir := t.TempDir()
	if err := Index([]string{"-out", filepath.Join(dir, "x.axdb")}, io.Discard, io.Discard); err == nil {
		t.Error("Index without inputs succeeded")
	}
	bad := writeFile(t, dir, "bad.xml", "<broken")
	if err := Index([]string{"-out", filepath.Join(dir, "x.axdb"), bad}, io.Discard, io.Discard); err == nil {
		t.Error("Index on broken XML succeeded")
	}
}

func TestQueryGenEndToEnd(t *testing.T) {
	dir := t.TempDir()
	// Generate a small collection, index it, produce query sets, and run
	// one generated query with its cost file — the paper's full workflow.
	xml := filepath.Join(dir, "data.xml")
	if err := Gen([]string{"-seed", "4", "-elements", "800", "-words", "3000",
		"-names", "12", "-vocab", "150", "-q", "-out", xml}, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	dbFile := filepath.Join(dir, "data.axdb")
	if err := Index([]string{"-out", dbFile, "-q", xml}, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	qdir := filepath.Join(dir, "queries")
	var stderr bytes.Buffer
	if err := QueryGen([]string{"-db", dbFile, "-out", qdir, "-count", "2",
		"-renamings", "0,5"}, io.Discard, &stderr); err != nil {
		t.Fatal(err)
	}
	// 3 patterns × 2 levels × 2 queries = 12 pairs.
	queries, _ := filepath.Glob(filepath.Join(qdir, "*.axq"))
	costs, _ := filepath.Glob(filepath.Join(qdir, "*.costs"))
	if len(queries) != 12 || len(costs) != 12 {
		t.Fatalf("wrote %d queries, %d cost files; want 12 each", len(queries), len(costs))
	}
	// The generated artifacts are consumable by axql.
	src, err := os.ReadFile(queries[0])
	if err != nil {
		t.Fatal(err)
	}
	costFile := strings.TrimSuffix(queries[0], ".axq") + ".costs"
	if err := Query([]string{"-db", dbFile, "-costs", costFile, "-n", "3",
		strings.TrimSpace(string(src))}, io.Discard, io.Discard); err != nil {
		t.Fatalf("running generated query: %v", err)
	}
	// Bad inputs are rejected.
	if err := QueryGen([]string{"-db", dbFile}, io.Discard, io.Discard); err == nil {
		t.Error("missing -out accepted")
	}
	if err := QueryGen([]string{"-db", dbFile, "-out", qdir, "-renamings", "x"},
		io.Discard, io.Discard); err == nil {
		t.Error("bad renaming list accepted")
	}
}

func TestBenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("bench harness")
	}
	var out, stderr bytes.Buffer
	err := Bench([]string{"-scale", "0.0004", "-queries", "2", "-figure", "7a"}, &out, &stderr)
	if err != nil {
		t.Fatalf("Bench: %v\n%s", err, stderr.String())
	}
	if !strings.Contains(out.String(), "Figure 7a") || !strings.Contains(out.String(), "schema") {
		t.Errorf("bench output:\n%s", out.String())
	}
}

func TestBenchStoredBackend(t *testing.T) {
	if testing.Short() {
		t.Skip("bench harness")
	}
	var out, stderr bytes.Buffer
	err := Bench([]string{"-scale", "0.0004", "-queries", "1", "-figure", "7a",
		"-backend", "stored"}, &out, &stderr)
	if err != nil {
		t.Fatalf("Bench -backend stored: %v\n%s", err, stderr.String())
	}
	if !strings.Contains(out.String(), "Figure 7a") || !strings.Contains(stderr.String(), "backend=stored") {
		t.Errorf("bench output:\n%s%s", out.String(), stderr.String())
	}
	// Unknown backends are rejected.
	if err := Bench([]string{"-backend", "warp"}, io.Discard, io.Discard); err == nil {
		t.Error("unknown backend accepted")
	}
}

// TestBenchPlannerCheck runs the planner regret check at a tiny scale: one
// row per (n, pattern, renamings, strategy). Whether the gate passes depends
// on timings, so its own failure is not a test failure.
func TestBenchPlannerCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("bench harness")
	}
	var out, stderr bytes.Buffer
	err := Bench([]string{"-scale", "0.0004", "-queries", "1", "-plannercheck"}, &out, &stderr)
	if err != nil && !strings.Contains(err.Error(), "planner picked a strategy") {
		t.Fatalf("Bench -plannercheck: %v\n%s", err, stderr.String())
	}
	rows := regexp.MustCompile(`(?m)^pattern[123] +[05] +(direct|schema|auto) `).FindAllString(out.String(), -1)
	if len(rows) != 2*3*2*3 {
		t.Errorf("planner tables have %d rows, want 36:\n%s", len(rows), out.String())
	}
}

// TestBundleQueryWithoutXML is the acceptance path of the stored backend:
// axqlindex persists the collection, both index stores, and a bundle; axql
// then queries the bundle after the source XML has been deleted — proving
// no re-parse happens — and returns the same ranked results as querying the
// collection file, for both strategies.
func TestBundleQueryWithoutXML(t *testing.T) {
	dir := t.TempDir()
	xml := writeFile(t, dir, "catalog.xml", catalogXML)
	dbFile := filepath.Join(dir, "catalog.axdb")
	postings := filepath.Join(dir, "catalog.idx")
	secondary := filepath.Join(dir, "catalog.sec")

	var stderr bytes.Buffer
	err := Index([]string{
		"-out", dbFile, "-postings", postings, "-secondary", secondary, xml,
	}, io.Discard, &stderr)
	if err != nil {
		t.Fatalf("Index: %v", err)
	}
	bundle := dbFile + ".bundle"
	if _, err := os.Stat(bundle); err != nil {
		t.Fatalf("bundle not written: %v", err)
	}
	if !strings.Contains(stderr.String(), "bundle:") {
		t.Errorf("summary missing bundle line: %q", stderr.String())
	}

	// No re-ingestion: the XML is gone before the bundle is queried.
	if err := os.Remove(xml); err != nil {
		t.Fatal(err)
	}

	for _, strategy := range []string{"direct", "schema"} {
		var viaCollection, viaBundle bytes.Buffer
		if err := Query([]string{"-db", dbFile, "-papercosts", "-strategy", strategy,
			"-n", "0", `cd[title["concerto"]]`}, &viaCollection, io.Discard); err != nil {
			t.Fatalf("query via collection: %v", err)
		}
		if err := Query([]string{"-db", bundle, "-papercosts", "-strategy", strategy,
			"-n", "0", `cd[title["concerto"]]`}, &viaBundle, io.Discard); err != nil {
			t.Fatalf("query via bundle: %v", err)
		}
		if viaCollection.String() != viaBundle.String() {
			t.Errorf("strategy %s: bundle results differ:\n%s\nvs\n%s",
				strategy, viaBundle.String(), viaCollection.String())
		}
		if viaBundle.Len() == 0 {
			t.Errorf("strategy %s: bundle query returned nothing", strategy)
		}
	}

	// -cache and -stats work against the bundle and report backend fetches.
	var out bytes.Buffer
	if err := Query([]string{"-db", bundle, "-papercosts", "-cache", "64", "-stats",
		"-strategy", "schema", "-n", "2", `cd[title["concerto"]]`}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "backend fetches") {
		t.Errorf("stats over bundle lack backend fetches:\n%s", out.String())
	}

	// -bundle without both stores is rejected.
	if err := Index([]string{"-out", dbFile, "-bundle", bundle, xml}, io.Discard, io.Discard); err == nil {
		t.Error("-bundle without -postings/-secondary accepted")
	}
}

func TestCorpusIndexAndQueryEndToEnd(t *testing.T) {
	dir := t.TempDir()
	doc1 := writeFile(t, dir, "doc1.xml",
		`<catalog><cd><title>Piano Concerto</title><composer>Rachmaninov</composer></cd></catalog>`)
	doc2 := writeFile(t, dir, "doc2.xml",
		`<catalog><cd><title>Piano Sonata</title><composer>Beethoven</composer></cd></catalog>`)
	doc3 := writeFile(t, dir, "doc3.xml",
		`<library><book><name>Harmony</name></book></library>`)
	bundle := filepath.Join(dir, "corpus.axql")

	var stderr bytes.Buffer
	err := Index([]string{"-out", bundle, "-shard-docs", "1", doc1, doc2, doc3},
		io.Discard, &stderr)
	if err != nil {
		t.Fatalf("Index -shard-docs: %v", err)
	}
	if !strings.Contains(stderr.String(), "3 documents into 3 shards") {
		t.Errorf("summary = %q", stderr.String())
	}

	// The source XML is gone before the bundle is queried: corpus queries
	// run against the persisted shards alone.
	for _, f := range []string{doc1, doc2, doc3} {
		if err := os.Remove(f); err != nil {
			t.Fatal(err)
		}
	}

	// Both strategies agree, and every hit names its document.
	var direct, viaSchema bytes.Buffer
	for _, tc := range []struct {
		strategy string
		out      *bytes.Buffer
	}{{"direct", &direct}, {"schema", &viaSchema}} {
		if err := Query([]string{"-db", bundle, "-papercosts", "-strategy", tc.strategy,
			"-n", "0", `cd[title["concerto"]]`}, tc.out, io.Discard); err != nil {
			t.Fatalf("corpus query (%s): %v", tc.strategy, err)
		}
	}
	if direct.String() != viaSchema.String() {
		t.Errorf("strategies disagree over the corpus:\n%s\nvs\n%s",
			direct.String(), viaSchema.String())
	}
	if !strings.Contains(direct.String(), "doc1.xml") {
		t.Errorf("ranking does not name the matching document:\n%s", direct.String())
	}

	// -stream and -render work over the corpus.
	var out bytes.Buffer
	if err := Query([]string{"-db", bundle, "-papercosts", "-stream", "-render", "-n", "1",
		`cd[title["concerto"]]`}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "<title>") {
		t.Errorf("corpus stream -render output:\n%s", out.String())
	}

	// -explain prints merged second-level plans with their shard counts.
	out.Reset()
	if err := Query([]string{"-db", bundle, "-papercosts", "-explain", "-n", "5",
		`cd[title["concerto"]]`}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "shards") {
		t.Errorf("corpus explain output:\n%s", out.String())
	}
	corpusHeader := regexp.MustCompile(`^planner strategy=(direct|schema) price=\d+ planner=auto$`)
	if first, _, _ := strings.Cut(out.String(), "\n"); !corpusHeader.MatchString(first) {
		t.Errorf("corpus planner header = %q, want match for %v", first, corpusHeader)
	}

	// -stats without a query reports corpus statistics.
	out.Reset()
	if err := Query([]string{"-db", bundle, "-stats"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "shards         3") {
		t.Errorf("corpus stats output:\n%s", out.String())
	}

	// Database-only flags are rejected against a corpus bundle.
	if err := Query([]string{"-db", bundle, "-highlight", "x"}, io.Discard, io.Discard); err == nil {
		t.Error("-highlight accepted against a corpus bundle")
	}
	if err := Query([]string{"-db", bundle, "-autocosts", "x"}, io.Discard, io.Discard); err == nil {
		t.Error("-autocosts accepted against a corpus bundle")
	}
}

func TestCorpusIndexRejectsStoreFlags(t *testing.T) {
	dir := t.TempDir()
	xml := writeFile(t, dir, "catalog.xml", catalogXML)
	out := filepath.Join(dir, "corpus.axql")
	err := Index([]string{"-out", out, "-shard-docs", "2",
		"-postings", filepath.Join(dir, "p.idx"), xml}, io.Discard, io.Discard)
	if err == nil {
		t.Error("-shard-docs with -postings accepted")
	}
}
