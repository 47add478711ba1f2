package approxql

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"approxql/internal/datagen"
	"approxql/internal/querygen"
)

// corpusWorld is the shared fixture of the corpus tests: D synthetic
// documents as XML strings (so the same bytes feed per-document databases
// and every corpus layout), plus a query generator over the combined
// collection.
type corpusWorld struct {
	docsXML []string
	gen     *querygen.Generator
	queries []corpusQuery
}

type corpusQuery struct {
	name  string
	query string
	model *CostModel
}

var cworld *corpusWorld

func getCorpusWorld(t *testing.T) *corpusWorld {
	t.Helper()
	if cworld != nil {
		return cworld
	}
	// A small template with little repetition yields many small documents
	// (Default's 300-node template packs the whole element budget into one
	// document, useless for a multi-document corpus).
	g, err := datagen.New(datagen.Config{
		Seed:            7,
		NumElementNames: 60,
		VocabularySize:  2_000,
		TargetElements:  6_000,
		TargetWords:     20_000,
		TemplateNodes:   40,
		MaxDepth:        6,
		MaxRepeat:       2,
		ZipfSkew:        1.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var docs []string
	for !g.Done() && len(docs) < 16 {
		var buf bytes.Buffer
		if err := g.WriteDocumentXML(&buf); err != nil {
			t.Fatal(err)
		}
		docs = append(docs, buf.String())
	}
	if len(docs) < 8 {
		t.Fatalf("datagen produced only %d documents", len(docs))
	}

	// The query generator draws labels from the combined collection, so
	// generated queries have matches spread over many documents.
	b := NewBuilder(nil)
	for _, d := range docs {
		if err := b.AddXMLString(d); err != nil {
			t.Fatal(err)
		}
	}
	db, err := b.Database()
	if err != nil {
		t.Fatal(err)
	}
	qg, err := querygen.New(db.Tree(), 11)
	if err != nil {
		t.Fatal(err)
	}
	w := &corpusWorld{docsXML: docs, gen: qg}
	for pi, pattern := range querygen.PaperPatterns {
		for _, renamings := range []int{0, 5} {
			gq, err := qg.Generate(pattern, renamings)
			if err != nil {
				t.Fatal(err)
			}
			w.queries = append(w.queries, corpusQuery{
				name:  fmt.Sprintf("pattern%d/renamings=%d", pi+1, renamings),
				query: gq.Query.String(),
				model: gq.Model,
			})
		}
	}
	cworld = w
	return w
}

// buildCorpus assembles the fixture documents into a corpus with the given
// shard capacity.
func buildCorpus(t *testing.T, docsXML []string, shardDocs int) *Corpus {
	t.Helper()
	cb := NewCorpusBuilder(nil)
	cb.SetShardSize(shardDocs)
	for i, d := range docsXML {
		id, err := cb.AddDocumentString(fmt.Sprintf("doc%02d.xml", i), d)
		if err != nil {
			t.Fatal(err)
		}
		if int(id) != i {
			t.Fatalf("AddDocumentString returned DocID %d for document %d", id, i)
		}
	}
	c, err := cb.Corpus()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// relHit is the shard-layout-invariant form of a hit: the document, the
// result root relative to the document's root, and the cost. A document's
// subtree encoding is identical in every layout, so equal relHit sequences
// mean bit-identical rankings.
type relHit struct {
	doc  int
	rel  NodeID
	cost Cost
}

func corpusRelHits(c *Corpus, hits []Hit) []relHit {
	out := make([]relHit, len(hits))
	for i, h := range hits {
		out[i] = relHit{doc: int(h.Doc), rel: h.Root - c.Doc(h.Doc).Root(), cost: h.Cost}
	}
	return out
}

// referenceHits computes the ground truth by brute force: every document
// evaluated alone with the direct algorithm (all results), merged under
// the global (cost, doc, rel) order.
func referenceHits(t *testing.T, docsXML []string, q corpusQuery) []relHit {
	t.Helper()
	var all []relHit
	for i, d := range docsXML {
		b := NewBuilder(nil)
		if err := b.AddXMLString(d); err != nil {
			t.Fatal(err)
		}
		db, err := b.Database()
		if err != nil {
			t.Fatal(err)
		}
		res, err := db.Search(q.query, 0, WithCostModel(q.model), WithStrategy(Direct))
		if err != nil {
			t.Fatal(err)
		}
		docRoot := db.Tree().Documents()[0]
		for _, r := range res {
			all = append(all, relHit{doc: i, rel: r.Root - docRoot, cost: r.Cost})
		}
	}
	// Merge under the global total order. The per-document results are
	// already root-ascending within one cost, so a stable sort by (cost,
	// doc) would do; sort fully for clarity.
	sortRelHits(all)
	return all
}

func sortRelHits(hits []relHit) {
	for i := 1; i < len(hits); i++ {
		for j := i; j > 0 && relLess(hits[j], hits[j-1]); j-- {
			hits[j], hits[j-1] = hits[j-1], hits[j]
		}
	}
}

func relLess(a, b relHit) bool {
	if a.cost != b.cost {
		return a.cost < b.cost
	}
	if a.doc != b.doc {
		return a.doc < b.doc
	}
	return a.rel < b.rel
}

// TestCorpusEquivalence is the corpus's central contract: for every shard
// layout (one shard, a few, one document per shard), every strategy
// (per-shard planner-resolved Auto included), and both parallelism
// settings, Search returns exactly the same ranked (doc, root, cost) top-n
// as evaluating every document independently and merging — bit-identical,
// including tie order.
func TestCorpusEquivalence(t *testing.T) {
	w := getCorpusWorld(t)
	D := len(w.docsXML)

	refs := make([][]relHit, len(w.queries))
	for qi, q := range w.queries {
		refs[qi] = referenceHits(t, w.docsXML, q)
	}

	for _, shards := range []int{1, 2, 7, D} {
		shardDocs := (D + shards - 1) / shards
		c := buildCorpus(t, w.docsXML, shardDocs)
		for qi, q := range w.queries {
			ref := refs[qi]
			for _, strategy := range []Strategy{Direct, SchemaDriven, Auto} {
				for _, par := range []int{1, 4} {
					for _, n := range []int{5, 0} {
						name := fmt.Sprintf("shards=%d/%s/%s/par=%d/n=%d",
							shards, q.name, strategy, par, n)
						hits, err := c.Search(q.query, n,
							WithCostModel(q.model), WithStrategy(strategy), WithParallelism(par))
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						got := corpusRelHits(c, hits)
						want := ref
						if n > 0 && n < len(want) {
							want = want[:n]
						}
						if len(got) != len(want) {
							t.Fatalf("%s: got %d hits, want %d\ngot  %v\nwant %v",
								name, len(got), len(want), got, want)
						}
						for i := range got {
							if got[i] != want[i] {
								t.Fatalf("%s: hit %d = %+v, want %+v", name, i, got[i], want[i])
							}
						}
					}
				}
			}
		}
		c.Close()
	}
}

// TestCorpusStreamOrder verifies that Stream delivers the same globally
// ordered sequence as Search, across shard layouts.
func TestCorpusStreamOrder(t *testing.T) {
	w := getCorpusWorld(t)
	D := len(w.docsXML)
	q := w.queries[len(w.queries)-1] // pattern 3 with renamings: widest cost spread
	for _, shards := range []int{1, 3, D} {
		c := buildCorpus(t, w.docsXML, (D+shards-1)/shards)
		hits, err := c.Search(q.query, 0, WithCostModel(q.model), WithStrategy(SchemaDriven))
		if err != nil {
			t.Fatal(err)
		}
		want := corpusRelHits(c, hits)
		limit := len(want)/2 + 1
		var got []relHit
		err = c.Stream(q.query, func(h Hit) bool {
			got = append(got, relHit{doc: int(h.Doc), rel: h.Root - c.Doc(h.Doc).Root(), cost: h.Cost})
			return len(got) < limit
		}, WithCostModel(q.model))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != limit {
			t.Fatalf("shards=%d: stream stopped after %d hits, want %d", shards, len(got), limit)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("shards=%d: stream hit %d = %+v, Search hit %+v", shards, i, got[i], want[i])
			}
		}
		c.Close()
	}
}

// TestCorpusCutoffEffectiveness pins the scatter-gather cutoff: with
// sequential shard pickup (parallelism 1) the first shards fill the global
// top-n heap, so later shards must observe a finite bound and stop their
// plan streams early. The counters
// are summed over the generated query set — any single query may be too
// cheap to trigger the cutoff, the set is not.
func TestCorpusCutoffEffectiveness(t *testing.T) {
	w := getCorpusWorld(t)
	D := len(w.docsXML)
	c := buildCorpus(t, w.docsXML, 2) // many shards: maximal cutoff opportunity
	defer c.Close()

	var total QueryMetrics
	for _, q := range w.queries {
		var m QueryMetrics
		if _, err := c.Search(q.query, 3,
			WithCostModel(q.model), WithStrategy(SchemaDriven),
			WithParallelism(1), WithMetrics(&m)); err != nil {
			t.Fatal(err)
		}
		if m.Shards == 0 {
			t.Fatalf("%s: metrics report zero shards searched", q.name)
		}
		total.Merge(&m)
	}
	if total.Shards == 0 || total.Shards > len(w.queries)*((D+1)/2) {
		t.Fatalf("implausible shard count %d", total.Shards)
	}
	if total.BoundSkipped == 0 && total.BoundStops == 0 {
		t.Fatalf("cutoff never engaged over %d queries: %+v", len(w.queries), total)
	}
	t.Logf("cutoff over %d queries: %d second-level queries skipped, %d shard stops",
		len(w.queries), total.BoundSkipped, total.BoundStops)
}

// TestCorpusPruning verifies summary-based shard skipping: a query whose
// root label (and renamings) exists in only one shard must prune the rest,
// and still return the right hits.
func TestCorpusPruning(t *testing.T) {
	cb := NewCorpusBuilder(nil)
	cb.SetShardSize(1)
	mustAdd := func(name, doc string) {
		t.Helper()
		if _, err := cb.AddDocumentString(name, doc); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd("a.xml", `<alpha><title>one</title></alpha>`)
	mustAdd("b.xml", `<beta><title>two</title></beta>`)
	mustAdd("c.xml", `<gamma><title>three</title></gamma>`)
	c, err := cb.Corpus()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var m QueryMetrics
	hits, err := c.Search(`beta[title]`, 10, WithMetrics(&m))
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0].Doc != 1 {
		t.Fatalf("hits = %+v, want one hit in doc 1", hits)
	}
	if c.Doc(hits[0].Doc).Name() != "b.xml" {
		t.Fatalf("hit names doc %q, want b.xml", c.Doc(hits[0].Doc).Name())
	}
	if m.Shards != 1 || m.ShardsPruned != 2 {
		t.Fatalf("searched %d shards, pruned %d; want 1 searched, 2 pruned", m.Shards, m.ShardsPruned)
	}

	// A renaming re-activates the shard holding the renamed label.
	model := NewCostModel()
	model.AddRenaming("beta", "gamma", Struct, 2)
	m = QueryMetrics{}
	hits, err = c.Search(`beta[title]`, 10, WithCostModel(model), WithMetrics(&m))
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 {
		t.Fatalf("hits = %+v, want hits in docs 1 and 2", hits)
	}
	if hits[0].Doc != 1 || hits[1].Doc != 2 || hits[0].Cost >= hits[1].Cost {
		t.Fatalf("hits = %+v, want exact beta match first, renamed gamma second", hits)
	}
	if m.Shards != 2 || m.ShardsPruned != 1 {
		t.Fatalf("searched %d shards, pruned %d; want 2 searched, 1 pruned", m.Shards, m.ShardsPruned)
	}
}

// TestCorpusBundleRoundTrip persists a sharded corpus and reopens it: the
// manifest must be v3, DocIDs and names must survive, rankings must be
// identical, and the stored corpus must accept a cache-size budget.
func TestCorpusBundleRoundTrip(t *testing.T) {
	w := getCorpusWorld(t)
	q := w.queries[1]
	mem := buildCorpus(t, w.docsXML, 3)
	defer mem.Close()

	if err := mem.SetStoredCacheSize(64); err != ErrNotStored {
		t.Fatalf("SetStoredCacheSize on in-memory corpus = %v, want ErrNotStored", err)
	}

	path := filepath.Join(t.TempDir(), "corpus.bundle")
	if err := mem.SaveBundle(path); err != nil {
		t.Fatal(err)
	}
	stored, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer stored.Close()

	if stored.NumDocs() != mem.NumDocs() || stored.NumShards() != mem.NumShards() {
		t.Fatalf("reopened corpus has %d docs in %d shards, want %d in %d",
			stored.NumDocs(), stored.NumShards(), mem.NumDocs(), mem.NumShards())
	}
	for id := 0; id < mem.NumDocs(); id++ {
		if stored.Doc(DocID(id)).Name() != mem.Doc(DocID(id)).Name() {
			t.Fatalf("doc %d name %q, want %q", id, stored.Doc(DocID(id)).Name(), mem.Doc(DocID(id)).Name())
		}
	}
	if err := stored.SetStoredCacheSize(64); err != nil {
		t.Fatalf("SetStoredCacheSize on stored corpus: %v", err)
	}

	for _, strategy := range []Strategy{Direct, SchemaDriven} {
		want, err := mem.Search(q.query, 10, WithCostModel(q.model), WithStrategy(strategy))
		if err != nil {
			t.Fatal(err)
		}
		got, err := stored.Search(q.query, 10, WithCostModel(q.model), WithStrategy(strategy))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: stored corpus returned %d hits, memory %d", strategy, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: hit %d = %+v, want %+v", strategy, i, got[i], want[i])
			}
		}
	}
}

// TestSingleDatabaseBundleOpensAsCorpus pins that a single-database bundle
// (one shard, no document table) opens through the unified Open as a
// one-shard corpus answering identically to the Database API.
func TestSingleDatabaseBundleOpensAsCorpus(t *testing.T) {
	mem := buildDB(t)
	bundle := persistBundle(t, mem)

	c, err := Open(bundle, &OpenOptions{Model: PaperCostModel()})
	if err != nil {
		t.Fatalf("Open(single-database bundle): %v", err)
	}
	defer c.Close()
	if c.NumShards() != 1 {
		t.Fatalf("bundle opened with %d shards, want 1", c.NumShards())
	}
	if c.NumDocs() != len(mem.Tree().Documents()) {
		t.Fatalf("bundle corpus has %d docs, want %d", c.NumDocs(), len(mem.Tree().Documents()))
	}

	model := PaperCostModel()
	for _, query := range []string{
		`cd[title["concerto"]]`,
		`cd[title["piano"] and composer]`,
	} {
		res, err := mem.Search(query, 10, WithCostModel(model))
		if err != nil {
			t.Fatal(err)
		}
		hits, err := c.Search(query, 10, WithCostModel(model))
		if err != nil {
			t.Fatal(err)
		}
		if len(hits) != len(res) {
			t.Fatalf("%s: corpus returned %d hits, database %d", query, len(hits), len(res))
		}
		for i := range hits {
			if hits[i].Root != res[i].Root || hits[i].Cost != res[i].Cost {
				t.Fatalf("%s: hit %d = %+v, database result %+v", query, i, hits[i], res[i])
			}
		}
	}
}

// TestCorpusExplain sanity-checks the cross-shard plan merge: the cheapest
// plan of an exact-match query must cover every unpruned shard that holds
// the label, cost 0 first.
func TestCorpusExplain(t *testing.T) {
	w := getCorpusWorld(t)
	q := w.queries[1] // pattern 1 with renamings: plans several cost tiers
	c := buildCorpus(t, w.docsXML, 4)
	defer c.Close()
	plans, err := c.Explain(q.query, 5, WithCostModel(q.model))
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) == 0 {
		t.Fatal("no plans")
	}
	for i := 1; i < len(plans); i++ {
		if plans[i].Cost < plans[i-1].Cost {
			t.Fatalf("plans out of cost order: %+v", plans)
		}
	}
	for _, p := range plans {
		if p.Shards < 1 || p.Shards > c.NumShards() {
			t.Fatalf("plan %q claims %d shards of %d", p.Rendered, p.Shards, c.NumShards())
		}
		if strings.Contains(p.Rendered, "@") {
			t.Fatalf("plan %q leaks shard-local class identifiers", p.Rendered)
		}
	}

	// One shard plans cd[title[concerto]] twice, once per schema class of
	// cd (catalog/cd and catalog/box/cd): the merged plan counts it once.
	one := buildCorpus(t, []string{`<catalog><cd><title>concerto</title></cd><box><cd><title>concerto</title></cd></box></catalog>`}, 1)
	defer one.Close()
	plans, err = one.Explain(`cd[title["concerto"]]`, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 1 || plans[0].Rendered != "cd[title[concerto]]" || plans[0].Shards != 1 || plans[0].Results != 2 {
		t.Fatalf("one-shard plans = %+v, want cd[title[concerto]] on 1 shard with 2 results", plans)
	}
}
