package index_test

// External test package: the regression test drives Stored through its
// exported surface only.

import (
	"reflect"
	"sync"
	"testing"

	"approxql/internal/index"
	"approxql/internal/storage"
	"approxql/internal/xmltree"
)

// TestStoredConcurrentFetch is the regression test for the unsynchronized
// posting cache Stored used to keep internally: concurrent Struct/Text
// fetches through a shared cache raced on the map (run with -race to see the
// old failure). The cache is now an injected, mutex-guarded LRU shared with
// the secondary index.
func TestStoredConcurrentFetch(t *testing.T) {
	tree, err := xmltree.ParseXML(`
<catalog>
  <cd><title>Piano Concerto</title><composer>Rachmaninov</composer></cd>
  <cd><title>Piano Sonata</title></cd>
  <cd><title>Cello Suite</title><composer>Bach</composer></cd>
</catalog>`)
	if err != nil {
		t.Fatal(err)
	}
	mem := index.Build(tree)
	db, err := storage.Open("", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := index.Save(mem, db); err != nil {
		t.Fatal(err)
	}
	st := index.OpenStored(db)
	// A tiny capacity keeps the LRU evicting, so goroutines hit every code
	// path: miss, fill, hit, evict.
	st.SetCache(index.NewLRU(2))

	labels := []string{"catalog", "cd", "title", "composer", "missing"}
	terms := []string{"piano", "concerto", "sonata", "rachmaninov", "bach", "nope"}

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				label := labels[(g+i)%len(labels)]
				want, _ := mem.Struct(label)
				got, err := st.Struct(label)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("Struct(%s) = %v, want %v", label, got, want)
					return
				}
				term := terms[(g+i)%len(terms)]
				want, _ = mem.Text(term)
				got, err = st.Text(term)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("Text(%s) = %v, want %v", term, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
