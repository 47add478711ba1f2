package backend

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"approxql/internal/format"
	"approxql/internal/index"
	"approxql/internal/schema"
	"approxql/internal/storage"
	"approxql/internal/xmltree"
)

const catalogXML = `
<catalog>
  <cd><title>Piano Concerto</title><composer>Rachmaninov</composer></cd>
  <cd><title>Piano Sonata</title></cd>
  <cd><title>Cello Suite</title><composer>Bach</composer></cd>
</catalog>`

// openTestStored persists a small collection's indexes into tmpdir files and
// opens the stored backend over them.
func openTestStored(t *testing.T, cacheEntries int) (*Memory, *Stored) {
	t.Helper()
	tree, err := xmltree.ParseXML(catalogXML)
	if err != nil {
		t.Fatal(err)
	}
	mem := NewMemory(tree)
	dir := t.TempDir()
	postPath := filepath.Join(dir, "post.db")
	secPath := filepath.Join(dir, "sec.db")

	db, err := storage.Open(postPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := index.Save(mem.Index(), db); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = storage.Open(secPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Schema().SaveSec(db); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	st, err := OpenStoredOptions(tree, postPath, secPath, StoredOptions{CacheEntries: cacheEntries})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return mem, st
}

// TestStoredMatchesMemory checks every Backend accessor agrees between the
// two implementations.
func TestStoredMatchesMemory(t *testing.T) {
	mem, st := openTestStored(t, DefaultCacheEntries)
	for _, label := range []string{"catalog", "cd", "title", "composer", "missing"} {
		want, _ := mem.Struct(label)
		got, err := st.Struct(label)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("Struct(%s) = %v %v, want %v", label, got, err, want)
		}
	}
	for _, term := range []string{"piano", "concerto", "bach", "nope"} {
		want, _ := mem.Text(term)
		got, err := st.Text(term)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("Text(%s) = %v %v, want %v", term, got, err, want)
		}
	}
	for c := range mem.Schema().Len() {
		cid := schema.NodeID(c)
		want, _ := mem.SecInstances(cid)
		got, err := st.SecInstances(cid)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("SecInstances(%d) = %v %v, want %v", cid, got, err, want)
		}
		wn, _ := mem.SecInstanceCount(cid)
		gn, err := st.SecInstanceCount(cid)
		if err != nil || gn != wn {
			t.Errorf("SecInstanceCount(%d) = %d %v, want %d", cid, gn, err, wn)
		}
	}
	if st.CacheStats().Fetches == 0 {
		t.Error("stored backend reported no fetches")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestStoredConcurrentAccess drives postings and I_sec fetches through the
// shared LRU from many goroutines (run under -race). The tiny capacity keeps
// the cache evicting so hits, misses, and evictions all interleave.
func TestStoredConcurrentAccess(t *testing.T) {
	mem, st := openTestStored(t, 2)
	labels := []string{"catalog", "cd", "title", "composer"}
	terms := []string{"piano", "concerto", "sonata", "bach"}
	classes := mem.Schema().Len()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				label := labels[(g+i)%len(labels)]
				want, _ := mem.Struct(label)
				if got, err := st.Struct(label); err != nil || !reflect.DeepEqual(got, want) {
					t.Errorf("Struct(%s) = %v %v, want %v", label, got, err, want)
					return
				}
				term := terms[(g+i)%len(terms)]
				want, _ = mem.Text(term)
				if got, err := st.Text(term); err != nil || !reflect.DeepEqual(got, want) {
					t.Errorf("Text(%s) = %v %v, want %v", term, got, err, want)
					return
				}
				c := schema.NodeID((g + i) % classes)
				want, _ = mem.SecInstances(c)
				if got, err := st.SecInstances(c); err != nil || !reflect.DeepEqual(got, want) {
					t.Errorf("SecInstances(%d) = %v %v, want %v", c, got, err, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	stats := st.CacheStats()
	if stats.Fetches == 0 || stats.BytesDecoded == 0 {
		t.Errorf("stats = %+v, want non-zero fetches and bytes", stats)
	}
}

// TestStoredBoundedFetchCaches checks that a bounded I_sec miss caches the
// complete posting: a second bounded fetch of the key is an LRU hit, and a
// larger bound after a smaller one returns the exact longer prefix (a
// cached truncated view would return the shorter one again).
func TestStoredBoundedFetchCaches(t *testing.T) {
	mem, st := openTestStored(t, DefaultCacheEntries)
	sch := mem.Schema()
	upTo := func(post []xmltree.NodeID, bound xmltree.NodeID) []xmltree.NodeID {
		var out []xmltree.NodeID
		for _, u := range post {
			if u <= bound {
				out = append(out, u)
			}
		}
		return out
	}
	check := func(name string, full []xmltree.NodeID, fetch func(bound xmltree.NodeID) ([]xmltree.NodeID, error)) {
		t.Helper()
		if len(full) < 2 {
			t.Fatalf("%s: posting %v too short for the test", name, full)
		}
		for i, bound := range []xmltree.NodeID{full[0], full[0], full[len(full)-1]} {
			before := st.CacheStats()
			got, err := fetch(bound)
			if err != nil {
				t.Fatal(err)
			}
			if want := upTo(full, bound); !reflect.DeepEqual(got, want) {
				t.Errorf("%s up to %d = %v, want %v", name, bound, got, want)
			}
			hit := st.CacheStats().Hits > before.Hits
			if hit != (i > 0) {
				t.Errorf("%s fetch %d up to %d: LRU hit = %v, want %v", name, i, bound, hit, i > 0)
			}
		}
	}
	cd := sch.StructClasses("cd")[0]
	full, _ := mem.SecInstances(cd)
	check("SecInstancesUpTo(cd)", full, func(bound xmltree.NodeID) ([]xmltree.NodeID, error) {
		return st.SecInstancesUpTo(cd, bound)
	})
	title := sch.TextClasses("piano")[0]
	full, _ = mem.SecTermInstances(title, "piano")
	check("SecTermInstancesUpTo(piano)", full, func(bound xmltree.NodeID) ([]xmltree.NodeID, error) {
		return st.SecTermInstancesUpTo(title, "piano", bound)
	})
}

func TestLRUEvictionAndStats(t *testing.T) {
	lru := index.NewLRU(2)
	if _, ok := lru.Get([]byte("a")); ok {
		t.Fatal("hit on empty cache")
	}
	lru.Put([]byte("a"), []xmltree.NodeID{1}, 10)
	lru.Put([]byte("b"), []xmltree.NodeID{2}, 20)
	if _, ok := lru.Get([]byte("a")); !ok {
		t.Fatal("a evicted too early")
	}
	lru.Put([]byte("c"), []xmltree.NodeID{3}, 30) // evicts b (a was just used)
	if _, ok := lru.Get([]byte("b")); ok {
		t.Error("b should have been evicted")
	}
	if _, ok := lru.Get([]byte("a")); !ok {
		t.Error("a should have survived")
	}
	if lru.Len() != 2 {
		t.Errorf("Len = %d, want 2", lru.Len())
	}
	st := lru.Stats()
	if st.Fetches != 4 || st.Hits != 2 || st.BytesDecoded != 60 {
		t.Errorf("stats = %+v, want fetches=4 hits=2 bytes=60", st)
	}
}

func TestLRUDisabledStillCounts(t *testing.T) {
	lru := index.NewLRU(0)
	lru.Put([]byte("a"), []xmltree.NodeID{1}, 5)
	if _, ok := lru.Get([]byte("a")); ok {
		t.Error("disabled cache returned a hit")
	}
	st := lru.Stats()
	if st.Fetches != 1 || st.Hits != 0 || st.BytesDecoded != 5 {
		t.Errorf("stats = %+v", st)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for name, m := range map[string]Manifest{
		"single": {Shards: []ManifestShard{{
			Collection: filepath.Join(dir, "c.axql"),
			Postings:   filepath.Join(dir, "c.post"),
			Secondary:  filepath.Join(dir, "sub", "c.sec"),
		}}},
		"corpus": {
			Shards: []ManifestShard{
				{Collection: filepath.Join(dir, "a.axql"), Postings: filepath.Join(dir, "a.post"), Secondary: filepath.Join(dir, "a.sec"),
					Summary: &Summary{Docs: 2, Nodes: 9, MaxDepth: 3, Struct: map[string]int{"cd": 2}, Text: map[string]int{"piano": 1}}},
				{Collection: filepath.Join(dir, "b.axql"), Postings: filepath.Join(dir, "b.post"), Secondary: filepath.Join(dir, "b.sec")},
			},
			Docs: []ManifestDoc{{Shard: 0, Name: "x.xml"}, {Shard: 0}, {Shard: 1, Name: "y.xml"}},
		},
	} {
		path := filepath.Join(dir, name+".bundle")
		if err := WriteManifest(path, m); err != nil {
			t.Fatal(err)
		}
		if !IsBundle(path) {
			t.Errorf("%s: IsBundle = false on a bundle", name)
		}
		if got := IsCorpusBundle(path); got != (name == "corpus") {
			t.Errorf("%s: IsCorpusBundle = %v", name, got)
		}
		got, err := ReadManifest(path)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("%s: round trip = %+v, want %+v", name, got, m)
		}
	}
}

func TestManifestRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	cases := map[string]string{
		"magic":    "not a bundle\n" + `{"shards":[{"collection":"c","postings":"p","secondary":"s"}]}`,
		"missing":  manifestMagic + "\n" + `{"shards":[{"collection":"c","postings":"p"}]}`,
		"key":      manifestMagic + "\n" + `{"shards":[{"collection":"c","postings":"p","secondary":"s","extra":"x"}]}`,
		"noshards": manifestMagic + "\n" + `{"shards":[]}`,
		"nodocs": manifestMagic + "\n" + `{"shards":[{"collection":"c","postings":"p","secondary":"s"},` +
			`{"collection":"d","postings":"q","secondary":"t"}]}`,
		"docshard": manifestMagic + "\n" + `{"shards":[{"collection":"c","postings":"p","secondary":"s"}],"docs":[{"shard":7}]}`,
		"trailing": manifestMagic + "\n" + `{"shards":[{"collection":"c","postings":"p","secondary":"s"}]}{}`,
		"textbody": manifestMagic + "\ncollection c\npostings p\nsecondary s\n",
	}
	for name, content := range cases {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadManifest(path); err == nil {
			t.Errorf("%s: ReadManifest accepted malformed manifest", name)
		} else if errors.Is(err, format.ErrUnsupportedVersion) {
			t.Errorf("%s: malformed current-version manifest reported as a version problem: %v", name, err)
		}
		if IsCorpusBundle(path) {
			t.Errorf("%s: IsCorpusBundle = true on a malformed manifest", name)
		}
		if name == "magic" && IsBundle(path) {
			t.Error("IsBundle = true without magic")
		}
	}
}
