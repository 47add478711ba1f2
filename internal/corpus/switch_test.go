package corpus

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"approxql/internal/backend"
	"approxql/internal/cost"
	"approxql/internal/datagen"
	"approxql/internal/exec"
	"approxql/internal/index"
	"approxql/internal/kbest"
	"approxql/internal/lang"
	"approxql/internal/querygen"
	"approxql/internal/storage"
	"approxql/internal/xmltree"
)

// switchDocs generates the multi-document collection of the switch tests:
// small synthetic documents, so that a few shards each hold several.
func switchDocs(t *testing.T) []string {
	t.Helper()
	g, err := datagen.New(datagen.Config{
		Seed:            7,
		NumElementNames: 40,
		VocabularySize:  1_000,
		TargetElements:  3_000,
		TargetWords:     10_000,
		TemplateNodes:   40,
		MaxDepth:        6,
		MaxRepeat:       2,
		ZipfSkew:        1.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var docs []string
	for !g.Done() && len(docs) < 8 {
		var buf bytes.Buffer
		if err := g.WriteDocumentXML(&buf); err != nil {
			t.Fatal(err)
		}
		docs = append(docs, buf.String())
	}
	if len(docs) < 8 {
		t.Fatalf("datagen produced only %d documents", len(docs))
	}
	return docs
}

// buildTree parses documents into one shard tree.
func buildTree(t *testing.T, docs []string) *xmltree.Tree {
	t.Helper()
	b := xmltree.NewBuilder(nil)
	for _, d := range docs {
		if err := b.AddDocument(strings.NewReader(d)); err != nil {
			t.Fatal(err)
		}
	}
	tree, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// shardBackends splits docs into consecutive groups of per documents, one
// in-memory backend each, and returns the document table assigning them.
func shardBackends(t *testing.T, docs []string, per int) ([]backend.Backend, []backend.ManifestDoc) {
	t.Helper()
	var bes []backend.Backend
	var table []backend.ManifestDoc
	for i := 0; i < len(docs); i += per {
		group := docs[i:min(i+per, len(docs))]
		for range group {
			table = append(table, backend.ManifestDoc{Shard: len(bes), Name: fmt.Sprintf("doc%02d", len(table))})
		}
		bes = append(bes, backend.NewMemory(buildTree(t, group)))
	}
	return bes, table
}

// corpusOver assembles the backends listed in idx (indices into bes) as
// one (sub)corpus with fresh shards.
func corpusOver(t *testing.T, bes []backend.Backend, idx []int, table []backend.ManifestDoc) *Corpus {
	t.Helper()
	shards := make([]*Shard, len(idx))
	for i, j := range idx {
		shards[i] = NewShard(bes[j], nil)
	}
	c, err := NewSubset(shards, idx, len(bes), table)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// hitsOf projects any ranked element to its hit.
func hitsOf[T ranked](in []T) []Hit {
	out := make([]Hit, len(in))
	for i, h := range in {
		out[i] = h.rankKey()
	}
	return out
}

func searchHits(t *testing.T, c *Corpus, x *lang.Expanded, n int, cfg Config) []Hit {
	t.Helper()
	hits, err := Search(context.Background(), c, x, n, nil, cfg, func(h Hit, _ *kbest.Entry) Hit { return h })
	if err != nil {
		t.Fatal(err)
	}
	return hits
}

// firstN cuts a ranking at n (n <= 0: all).
func firstN(hits []Hit, n int) []Hit {
	if n > 0 && n < len(hits) {
		return hits[:n]
	}
	return hits
}

// upTo keeps the hits of a cost-ascending ranking no costlier than b.
func upTo(hits []Hit, b cost.Cost) []Hit {
	i := 0
	for i < len(hits) && hits[i].Cost <= b {
		i++
	}
	return hits[:i]
}

// TestCorpusSwitchEquivalence forces the Auto switch at both extremes — budget 1,
// which spends the budget after the first executed second-level query has
// already found hits, and no budget — and checks every Auto path against
// forced Direct on the full (cost, doc, root) order: Search over four
// shards, searchOne over one, both under an external cutoff as a cluster
// node runs them, Stream, and a two-node cluster.
func TestCorpusSwitchEquivalence(t *testing.T) {
	docs := switchDocs(t)
	bes, table := shardBackends(t, docs, 2)
	if len(bes) != 4 {
		t.Fatalf("%d shards, want 4", len(bes))
	}
	all := []int{0, 1, 2, 3}
	c := corpusOver(t, bes, all, table)
	one := OneShard(backend.NewMemory(buildTree(t, docs)), nil)
	cl := func(budget int) *Cluster {
		cfg := Config{budget: budget}
		return NewCluster([]Node{
			NewLocalShards(corpusOver(t, bes, []int{0, 1}, table), cfg),
			NewLocalShards(corpusOver(t, bes, []int{2, 3}, table), cfg),
		}, ClusterConfig{FailClosed: true})
	}
	clusters := map[int]*Cluster{1: cl(1), -1: cl(-1)}

	qg, err := querygen.New(buildTree(t, docs), 11)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	switched := 0
	for _, p := range querygen.PaperPatterns {
		for _, ren := range []int{0, 5, 10} {
			g, err := qg.Generate(p, ren)
			if err != nil {
				t.Fatal(err)
			}
			x := lang.Expand(g.Query, g.Model)
			for _, n := range []int{1, 10, 100} {
				want := searchHits(t, c, x, n, Config{Direct: true})
				wantOne := searchHits(t, one, x, n, Config{Direct: true})
				for _, budget := range []int{1, -1} {
					name := fmt.Sprintf("%s/%d/n=%d/budget=%d", p.Name, ren, n, budget)
					cfg := Config{Auto: true, budget: budget}
					check := func(path string, got []Hit, w []Hit) {
						t.Helper()
						if !slices.Equal(got, w) {
							t.Fatalf("%s: %s\n got %v\nwant %v", name, path, got, w)
						}
					}

					var m exec.Metrics
					cfg.Metrics = &m
					check("Search", searchHits(t, c, x, n, cfg), want)
					switched += m.Switched
					if budget < 0 && m.Switched != 0 {
						t.Fatalf("%s: %d switches without a budget", name, m.Switched)
					}
					cfg.Metrics = nil
					check("searchOne", searchHits(t, one, x, n, cfg), wantOne)

					// Under any external cutoff b the hits up to b are
					// exact: at the n-th cost that is the whole answer.
					if len(want) == 0 {
						t.Fatalf("%s: no hits", name)
					}
					for _, b := range []cost.Cost{want[0].Cost, want[len(want)-1].Cost} {
						bound := func() cost.Cost { return b }
						for path, sc := range map[string]*Corpus{"Search": c, "searchOne": one} {
							got, err := Search(ctx, sc, x, n, bound, cfg, func(h Hit, _ *kbest.Entry) Hit { return h })
							if err != nil {
								t.Fatal(err)
							}
							w := want
							if sc == one {
								w = wantOne
							}
							check(fmt.Sprintf("%s, bound %d", path, b), upTo(got, b), upTo(w, b))
						}
					}

					res, err := clusters[budget].Search(ctx, ClusterQuery{X: x, N: n, Strategy: "auto"}, nil)
					if err != nil {
						t.Fatal(err)
					}
					check("cluster", hitsOf(res.Hits), want)
				}

				var streamed []Hit
				err := c.Stream(ctx, x, Config{}, func(h Hit) bool {
					streamed = append(streamed, h)
					return len(streamed) < n
				})
				if err != nil {
					t.Fatal(err)
				}
				if got := firstN(streamed, n); !slices.Equal(got, want) {
					t.Fatalf("%s/%d/n=%d: Stream\n got %v\nwant %v", p.Name, ren, n, got, want)
				}
			}
		}
	}
	if switched == 0 {
		t.Fatal("budget 1 never switched a shard")
	}
}

// switchCorpus is a two-shard corpus for `a[b]`: shard 0 holds eight a
// elements of one schema class, so one second-level query retrieves them
// all; shard 1 holds eight a elements under eight different parents, eight
// classes whose equal-cost second-level queries must all run and together
// charge more than the direct algorithm's price.
func switchCorpus(t *testing.T) *Corpus {
	t.Helper()
	one := "<r><y>" + strings.Repeat("<a><b/></a>", 8) + "</y></r>"
	var many strings.Builder
	many.WriteString("<r>")
	for i := range 8 {
		fmt.Fprintf(&many, "<x%d><a><b/></a></x%d>", i, i)
	}
	many.WriteString("</r>")
	bes, table := shardBackends(t, []string{one, many.String()}, 1)
	return corpusOver(t, bes, []int{0, 1}, table)
}

// TestSwitchMetrics pins the switch's counters on one shard that finishes
// schema-driven within its budget and one that spends it and runs Direct.
func TestSwitchMetrics(t *testing.T) {
	c := switchCorpus(t)
	q, err := lang.Parse(`a[b]`)
	if err != nil {
		t.Fatal(err)
	}
	x := lang.Expand(q, cost.NewModel())
	for _, par := range []int{1, 2} {
		var m exec.Metrics
		got := searchHits(t, c, x, 1, Config{Auto: true, Parallelism: par, Metrics: &m})
		if want := searchHits(t, c, x, 1, Config{Direct: true}); !slices.Equal(got, want) {
			t.Fatalf("par=%d: auto %v, direct %v", par, got, want)
		}
		// Each shard's price: eight a and eight b postings.
		if m.Shards != 2 || m.Switched != 1 || m.Price != 32 || m.PlannerProbes != 4 {
			t.Errorf("par=%d: %d shards, %d switched, price %d, %d probes; want 2, 1, 32, 4",
				par, m.Shards, m.Switched, m.Price, m.PlannerProbes)
		}
		if m.PlannerStrategy != "schema" {
			t.Errorf("par=%d: planner strategy %q", par, m.PlannerStrategy)
		}
		// The switched shard's discarded hits are not counted: eight
		// from the schema-driven shard, one from Direct's best-1 run.
		if m.ResultsEmitted != 9 {
			t.Errorf("par=%d: %d results emitted, want 9", par, m.ResultsEmitted)
		}
		if s := m.String(); !strings.Contains(s, "1 switched") {
			t.Errorf("par=%d: report misses the switch:\n%s", par, s)
		}
	}

	// A cluster node reports the same switch.
	info, err := NewLocalShards(c, Config{}).Query(context.Background(), ClusterQuery{X: x, N: 1},
		func(ClusterHit) bool { return true }, NewBoundWatch())
	if err != nil {
		t.Fatal(err)
	}
	if info.Strategy != "schema" || info.Shards != 2 || info.Switched != 1 || info.Price != 32 {
		t.Errorf("cluster node: counters %+v, want schema start, 2 shards, 1 switched, price 32", info.NodeCounters)
	}
	// All results wanted: both shards start direct, nothing is priced.
	var m exec.Metrics
	searchHits(t, c, x, 0, Config{Auto: true, Metrics: &m})
	if m.Shards != 2 || m.PlannerStrategy != "direct" || m.Switched != 0 || m.Price != 0 || m.PlannerProbes != 0 {
		t.Errorf("n=0: %+v", m)
	}
}

// storedOver persists a memory backend's indexes and opens the stored
// backend over them.
func storedOver(t *testing.T, mem *backend.Memory) *backend.Stored {
	t.Helper()
	dir := t.TempDir()
	postPath := filepath.Join(dir, "post.db")
	secPath := filepath.Join(dir, "sec.db")
	if err := storage.Persist(postPath, func(s *storage.DB) error { return index.Save(mem.Index(), s) }); err != nil {
		t.Fatal(err)
	}
	if err := storage.Persist(secPath, mem.Schema().SaveSec); err != nil {
		t.Fatal(err)
	}
	st, err := backend.OpenStoredOptions(mem.Tree(), postPath, secPath, backend.StoredOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// TestPathMemoConcurrent: the per-class memoized path equals the tree's
// label-type path for every node of every shard, on the memory and the
// stored backend, with four readers filling and reading the memo at once.
// A backend without a schema answers from the tree and builds none.
func TestPathMemoConcurrent(t *testing.T) {
	docs := switchDocs(t)
	fresh, _ := shardBackends(t, docs, len(docs))
	sh := NewShard(fresh[0], nil)
	for u := xmltree.NodeID(0); int(u) < 50; u++ {
		if got, want := sh.Path(u), fresh[0].Tree().LabelTypePath(u); got != want {
			t.Fatalf("no schema, node %d: Path = %q, want %q", u, got, want)
		}
	}
	if fresh[0].HasSchema() {
		t.Fatal("Path built the schema of a backend that had none")
	}

	bes, table := shardBackends(t, docs, 2)
	stored := make([]backend.Backend, len(bes))
	for i, be := range bes {
		stored[i] = storedOver(t, be.(*backend.Memory))
	}
	all := []int{0, 1, 2, 3}
	for name, set := range map[string][]backend.Backend{"memory": bes, "stored": stored} {
		for _, be := range set {
			be.Schema() // the memo serves only built schemas
		}
		c := corpusOver(t, set, all, table)
		var wg sync.WaitGroup
		errs := make(chan string, 4)
		for range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i, sh := range c.Shards() {
					tree := sh.Backend().Tree()
					for u := xmltree.NodeID(0); int(u) < tree.Len(); u++ {
						if got, want := sh.Path(u), tree.LabelTypePath(u); got != want {
							errs <- fmt.Sprintf("%s shard %d node %d: Path = %q, want %q", name, i, u, got, want)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatal(e)
		}
	}
}
