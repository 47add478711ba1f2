package approxql

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"approxql/internal/backend"
	"approxql/internal/datagen"
	"approxql/internal/querygen"
	"approxql/internal/schema"
	"approxql/internal/xmltree"
)

// persistBundle writes db's collection file, both index stores, and a bundle
// manifest into a temp dir, returning the bundle path.
func persistBundle(t *testing.T, db *Database) string {
	t.Helper()
	return persistBundleIn(t, db, t.TempDir())
}

// persistBundleIn is persistBundle into dir, over whatever an earlier call
// left there: the files are c.axql, c.post, c.sec, and c.bundle. Every
// I_struct and I_text posting of db, and every struct class's I_sec
// posting, must read back unchanged from the stored files.
func persistBundleIn(t *testing.T, db *Database, dir string) string {
	t.Helper()
	collection := filepath.Join(dir, "c.axql")
	postings := filepath.Join(dir, "c.post")
	secondary := filepath.Join(dir, "c.sec")
	bundle := filepath.Join(dir, "c.bundle")

	f, err := os.Create(collection)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.PersistIndexes(postings, secondary); err != nil {
		t.Fatal(err)
	}
	if err := WriteBundle(bundle, collection, postings, secondary); err != nil {
		t.Fatal(err)
	}

	mem := db.be.(*backend.Memory)
	stored, err := backend.OpenStoredOptions(db.Tree(), postings, secondary, backend.StoredOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer stored.Close()
	readBack := func(what string, want, got []xmltree.NodeID, err error) {
		t.Helper()
		if err != nil || !slices.Equal(got, want) {
			t.Fatalf("stored %s: %d entries, %v; memory has %d", what, len(got), err, len(want))
		}
	}
	for _, name := range db.Tree().Names.Strings() {
		want, _ := mem.Struct(name)
		got, err := stored.Struct(name)
		readBack("I_struct "+name, want, got, err)
	}
	for _, term := range db.Tree().Terms.Strings() {
		want, _ := mem.Text(term)
		got, err := stored.Text(term)
		readBack("I_text "+term, want, got, err)
	}
	sch := mem.Schema()
	for c := schema.NodeID(0); c < schema.NodeID(sch.Len()); c++ {
		want, _ := mem.SecInstances(c)
		got, err := stored.SecInstances(c)
		readBack(fmt.Sprintf("I_sec class %d", c), want, got, err)
	}
	return bundle
}

// TestPersistIndexesDeterministic: persisting one database twice writes
// byte-identical stores, so a bundle is reproducible from its collection.
func TestPersistIndexesDeterministic(t *testing.T) {
	tree, err := datagen.GenerateTree(datagen.Config{
		Seed: 7, NumElementNames: 25, VocabularySize: 300,
		TargetElements: 3000, TargetWords: 12000,
		TemplateNodes: 60, MaxDepth: 6, MaxRepeat: 3, ZipfSkew: 1.2,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	db := newDatabase(tree)
	var files [2][2][]byte
	for i := range files {
		dir := t.TempDir()
		post, sec := filepath.Join(dir, "c.post"), filepath.Join(dir, "c.sec")
		if err := db.PersistIndexes(post, sec); err != nil {
			t.Fatal(err)
		}
		for j, path := range []string{post, sec} {
			if files[i][j], err = os.ReadFile(path); err != nil {
				t.Fatal(err)
			}
		}
	}
	for j, name := range []string{".post", ".sec"} {
		if !bytes.Equal(files[0][j], files[1][j]) {
			t.Errorf("two persists of one database wrote different %s files (%d and %d bytes)",
				name, len(files[0][j]), len(files[1][j]))
		}
	}
}

// TestBackendEquivalence is the cross-backend contract: Search,
// SearchExplained, and Explain return identical answers whether the postings
// come from the in-memory indexes or from the persisted B+tree files, for
// every strategy (planner-resolved Auto included), for sequential and
// parallel secondary execution, and across the page-cache and mmap read
// paths. The second fixture's flat term distribution gives many mid-size
// (200–1 400-byte) postings, the values whose leaf placement a B+tree that
// splits pages is most likely to get wrong.
func TestBackendEquivalence(t *testing.T) {
	for name, cfg := range map[string]datagen.Config{
		"default": {
			Seed: 42, NumElementNames: 25, VocabularySize: 500,
			TargetElements: 4000, TargetWords: 15000,
			TemplateNodes: 80, MaxDepth: 6, MaxRepeat: 3, ZipfSkew: 1.3,
		},
		"mid-size postings": {
			Seed: 42, NumElementNames: 25, VocabularySize: 150,
			TargetElements: 5000, TargetWords: 50000,
			TemplateNodes: 80, MaxDepth: 6, MaxRepeat: 3, ZipfSkew: 1.05,
		},
	} {
		t.Run(name, func(t *testing.T) { testBackendEquivalence(t, cfg) })
	}
}

func testBackendEquivalence(t *testing.T, cfg datagen.Config) {
	tree, err := datagen.GenerateTree(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	mem := newDatabase(tree)
	bundle := persistBundle(t, mem)

	variants := []struct {
		name string
		mmap bool
	}{
		{"pager", false},
		{"mmap", true},
	}
	storedDBs := make([]*Database, len(variants))
	for i, v := range variants {
		db, err := OpenDatabaseFileOptions(bundle, &OpenOptions{MMap: v.mmap})
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		defer db.Close()
		if v.mmap && !db.be.(*backend.Stored).MMapped() {
			t.Logf("%s: mmap unavailable on this platform, exercising the pager fallback", v.name)
		}
		storedDBs[i] = db
	}
	stored := storedDBs[0]
	if stored.Index() != nil {
		t.Fatal("stored database exposes in-memory indexes")
	}
	if err := stored.PersistIndexes(bundle+".p", bundle+".s"); err == nil {
		t.Fatal("PersistIndexes accepted a stored database")
	}

	qg, err := querygen.New(mem.Tree(), 7)
	if err != nil {
		t.Fatal(err)
	}
	const n = 10
	var lastQuery string
	var lastModel *CostModel
	for _, p := range querygen.PaperPatterns {
		for _, ren := range []int{0, 5} {
			set, err := qg.GenerateSet(p, ren, 2)
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range set {
				query := g.Query.String()
				lastQuery, lastModel = query, g.Model
				for _, strategy := range []Strategy{Direct, SchemaDriven, Auto} {
					for _, workers := range []int{1, 8} {
						opts := []QueryOption{
							WithCostModel(g.Model),
							WithStrategy(strategy),
							WithParallelism(workers),
						}
						want, err := mem.Search(query, n, opts...)
						if err != nil {
							t.Fatal(err)
						}
						for vi, db := range storedDBs {
							got, err := db.Search(query, n, opts...)
							if err != nil {
								t.Fatal(err)
							}
							if !sameResults(want, got) {
								t.Fatalf("%s (strategy=%v workers=%d): memory %v vs %s %v",
									query, strategy, workers, want, variants[vi].name, got)
							}
						}
					}
				}

				// SearchExplained (schema-driven only) and Explain.
				opts := []QueryOption{WithCostModel(g.Model), WithParallelism(1)}
				wantEx, err := mem.SearchExplained(query, n, opts...)
				if err != nil {
					t.Fatal(err)
				}
				gotEx, err := stored.SearchExplained(query, n, opts...)
				if err != nil {
					t.Fatal(err)
				}
				if len(wantEx) != len(gotEx) {
					t.Fatalf("%s: explained count %d vs %d", query, len(wantEx), len(gotEx))
				}
				for i := range wantEx {
					if wantEx[i].Root != gotEx[i].Root || wantEx[i].Cost != gotEx[i].Cost {
						t.Fatalf("%s: explained[%d] = %+v vs %+v", query, i, wantEx[i], gotEx[i])
					}
				}

				wantPlans, err := mem.Explain(query, 5, opts...)
				if err != nil {
					t.Fatal(err)
				}
				gotPlans, err := stored.Explain(query, 5, opts...)
				if err != nil {
					t.Fatal(err)
				}
				if len(wantPlans) != len(gotPlans) {
					t.Fatalf("%s: plan count %d vs %d", query, len(wantPlans), len(gotPlans))
				}
				for i := range wantPlans {
					if wantPlans[i].Cost != gotPlans[i].Cost ||
						wantPlans[i].Results != gotPlans[i].Results ||
						wantPlans[i].Rendered != gotPlans[i].Rendered {
						t.Fatalf("%s: plan[%d] = %+v vs %+v", query, i, wantPlans[i], gotPlans[i])
					}
				}
			}
		}
	}

	// The stored path must actually account its fetches, down to the page
	// level. Disabling the posting cache forces every fetch to storage so
	// the page counter cannot be masked by earlier runs.
	stored.SetStoredCacheSize(0)
	var m QueryMetrics
	if _, err := stored.Search(lastQuery, n,
		WithCostModel(lastModel), WithStrategy(SchemaDriven), WithMetrics(&m)); err != nil {
		t.Fatal(err)
	}
	if m.BackendFetches == 0 {
		t.Error("stored query reported zero backend fetches")
	}
	if m.PageReads == 0 {
		t.Error("stored query reported zero page reads")
	}
}

// sameResults compares ranked results exactly by root and cost, tolerating
// permutations within one cost tier (parallel execution may reorder ties).
func sameResults(a, b []Result) bool {
	if len(a) != len(b) {
		return false
	}
	used := make([]bool, len(b))
	for _, r := range a {
		found := false
		for j, s := range b {
			if !used[j] && r.Cost == s.Cost && r.Root == s.Root {
				used[j] = true
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// TestStoredBackendConcurrentQueries runs mixed-strategy searches against one
// stored database from many goroutines: the shared LRU, the read-only B+tree
// handles, and the lazily built schema must all tolerate it. Run with -race.
func TestStoredBackendConcurrentQueries(t *testing.T) {
	mem := buildDB(t)
	bundle := persistBundle(t, mem)
	stored, err := OpenBundle(bundle, PaperCostModel())
	if err != nil {
		t.Fatal(err)
	}
	defer stored.Close()
	// A tiny cache keeps eviction churning under load.
	stored.SetStoredCacheSize(4)

	model := PaperCostModel()
	queries := []string{
		`cd[title["concerto"]]`,
		`cd[title["piano" and "concerto"]]`,
		`cd[title["concerto" or "sonata"]]`,
		`mc[title["concerto"]]`,
	}
	want := make(map[string][]Result)
	for _, q := range queries {
		res, err := mem.Search(q, 0, WithCostModel(model))
		if err != nil {
			t.Fatal(err)
		}
		want[q] = res
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				q := queries[(g+i)%len(queries)]
				strategy := Direct
				if (g+i)%2 == 0 {
					strategy = SchemaDriven
				}
				res, err := stored.Search(q, 0, WithCostModel(model), WithStrategy(strategy))
				if err != nil {
					t.Errorf("%s: %v", q, err)
					return
				}
				if !sameResults(want[q], res) {
					t.Errorf("%s (strategy=%v): %v, want %v", q, strategy, res, want[q])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
