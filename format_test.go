package approxql

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"approxql/internal/backend"
	"approxql/internal/index"
	"approxql/internal/storage"
	"approxql/internal/xmltree"
)

// The magics earlier builds wrote for the two binary file kinds. AXQLBT02
// stores were written by an insert/split engine that could misplace keys.
const retiredTreeMagic = "AXQLTREE1\n"

var retiredStoreMagics = []string{"AXQLBT01", "AXQLBT02"}

// TestReindexReplacesStaleStores pins that persisting over the files of an
// earlier collection leaves no trace of it: a key the new collection lacks
// must not survive in the stores, and a store in a retired format must be
// replaced rather than refused — re-running the indexer is the upgrade path.
func TestReindexReplacesStaleStores(t *testing.T) {
	build := func(title string) *Database {
		b := NewBuilder(nil)
		if err := b.AddXMLString(`<cd><title>` + title + `</title><composer>rachmaninov</composer></cd>`); err != nil {
			t.Fatal(err)
		}
		db, err := b.Database()
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	queries := []string{`cd[title["piano"]]`, `cd[title["violin"]]`, `cd[composer["rachmaninov"]]`}

	t.Run("database", func(t *testing.T) {
		dir := t.TempDir()
		bundle := persistBundleIn(t, build("piano concerto"), dir)
		// The secondary store is left behind by a build that predates the
		// current B+tree layout.
		patchFile(t, filepath.Join(dir, "c.sec"), 0, []byte(retiredStoreMagics[1]))
		mem := build("violin sonata")
		persistBundleIn(t, mem, dir)

		stored, err := OpenBundle(bundle, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer stored.Close()
		for _, q := range queries {
			for _, strategy := range []Strategy{Direct, SchemaDriven} {
				want, err := mem.Search(q, 0, WithStrategy(strategy))
				if err != nil {
					t.Fatal(err)
				}
				got, err := stored.Search(q, 0, WithStrategy(strategy))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s (%v): stored %v, memory %v", q, strategy, got, want)
				}
			}
		}
	})

	t.Run("corpus", func(t *testing.T) {
		bundle := filepath.Join(t.TempDir(), "c.bundle")
		var mem *Corpus
		for _, title := range []string{"piano concerto", "violin sonata"} {
			cb := NewCorpusBuilder(nil)
			if _, err := cb.AddDocumentString("a.xml", `<cd><title>`+title+`</title></cd>`); err != nil {
				t.Fatal(err)
			}
			var err error
			if mem, err = cb.Corpus(); err != nil {
				t.Fatal(err)
			}
			if err := mem.SaveBundle(bundle); err != nil {
				t.Fatal(err)
			}
		}
		stored, err := Open(bundle, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer stored.Close()
		for _, q := range queries {
			want, err := mem.Search(q, 0)
			if err != nil {
				t.Fatal(err)
			}
			got, err := stored.Search(q, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: stored %v, memory %v", q, got, want)
			}
		}
	})
}

// patchFile overwrites the bytes of the file at path from offset off.
func patchFile(t *testing.T, path string, off int64, data []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(data, off); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRetiredFormatsRejected feeds every reader the formats earlier builds
// wrote — manifests v1–v5 with a text and with a JSON body, an AXQLTREE1
// collection file, AXQLBT01 and AXQLBT02 B+tree files, a flat-varint and a
// 0x00 0x02 posting — bare and behind each facade entry point. Each must come back as
// the one unsupported-version error (for the markerless flat-varint posting,
// which carries no version to report, a decode error): never a panic, never
// a partial answer.
func TestRetiredFormatsRejected(t *testing.T) {
	// Encodings of {3, 7, 1000, 1001} in the two retired posting codecs.
	flatVarint := []byte{0x04, 0x03, 0x04, 0xe1, 0x07, 0x01}
	blockedVarint := []byte{0x00, 0x02, 0x04, 0x80, 0x01, 0x03, 0x04, 0x04, 0xe1, 0x07, 0x01}

	// A fresh current-format bundle per case, for the case to damage.
	freshBundle := func(t *testing.T) (dir, bundle string) {
		dir = t.TempDir()
		return dir, persistBundleIn(t, buildDB(t), dir)
	}
	// opens runs every facade entry point that accepts a bundle path.
	opens := func(path string) map[string]func() (any, error) {
		return map[string]func() (any, error){
			"Open":       func() (any, error) { return nilIfErr(Open(path, nil)) },
			"OpenBundle": func() (any, error) { return nilIfErr(OpenBundle(path, nil)) },
			"OpenDatabaseFile": func() (any, error) {
				return nilIfErr(OpenDatabaseFile(path, nil))
			},
			"OpenDatabaseFileOptions": func() (any, error) {
				return nilIfErr(OpenDatabaseFileOptions(path, &OpenOptions{MMap: true}))
			},
		}
	}

	type reject struct {
		name string
		read func() (any, error)
		// versioned is false only where the input has no version marker.
		versioned bool
	}
	var cases []reject
	add := func(name string, versioned bool, read func() (any, error)) {
		cases = append(cases, reject{name, read, versioned})
	}

	textBody := "collection c.axql\npostings c.post\nsecondary c.sec\n"
	jsonBody := `{"shards":[{"collection":"c.axql","postings":"c.post","secondary":"c.sec"}],` +
		`"docs":[{"shard":0,"name":"a.xml"},{"shard":0},{"shard":0}]}` + "\n"
	for v := 1; v <= 5; v++ {
		for shape, body := range map[string]string{"text": textBody, "json": jsonBody} {
			// The files the manifest names are current and intact: only the
			// manifest is old.
			_, bundle := freshBundle(t)
			if err := os.WriteFile(bundle, []byte(fmt.Sprintf("axql-bundle v%d\n%s", v, body)), 0o644); err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("manifest v%d %s", v, shape)
			add(name+": ReadManifest", true, func() (any, error) {
				m, err := backend.ReadManifest(bundle)
				if err != nil {
					return nil, err
				}
				return m, nil
			})
			for entry, open := range opens(bundle) {
				add(name+": "+entry, true, open)
			}
			if IsCorpusBundle(bundle) {
				t.Errorf("%s: IsCorpusBundle = true", name)
			}
		}
	}

	oldTree := []byte(retiredTreeMagic + "\x02" + "1\n\"cd\"\n1\n\"piano\"\n\x00\x01\x01\x00")
	add("AXQLTREE1: ReadTree", true, func() (any, error) {
		tree, err := xmltree.ReadTree(bytes.NewReader(oldTree), nil)
		if err != nil {
			return nil, err
		}
		return tree, nil
	})
	{
		dir, bundle := freshBundle(t)
		collection := filepath.Join(dir, "c.axql")
		if err := os.WriteFile(collection, oldTree, 0o644); err != nil {
			t.Fatal(err)
		}
		for entry, open := range opens(bundle) {
			add("AXQLTREE1 in a bundle: "+entry, true, open)
		}
		add("AXQLTREE1 collection file: OpenDatabaseFile", true, func() (any, error) {
			return nilIfErr(OpenDatabaseFile(collection, nil))
		})
		add("AXQLTREE1 collection file: Open", true, func() (any, error) {
			return nilIfErr(Open(collection, nil))
		})
	}

	// An empty store of each retired layout: the meta page (magic, root
	// page 1, two pages), then the root leaf.
	for _, magic := range retiredStoreMagics {
		oldStore := make([]byte, 2*storage.PageSize)
		copy(oldStore, magic)
		oldStore[8], oldStore[16] = 1, 2
		oldStore[storage.PageSize] = 2 // page type: leaf
		for _, store := range []string{"c.post", "c.sec"} {
			dir, bundle := freshBundle(t)
			path := filepath.Join(dir, store)
			if err := os.WriteFile(path, oldStore, 0o644); err != nil {
				t.Fatal(err)
			}
			for mode, opts := range map[string]*storage.Options{
				"read-write": nil,
				"read-only":  {ReadOnly: true},
				"mmap":       {ReadOnly: true, MMap: true},
			} {
				add(magic+" "+store+": storage.Open "+mode, true, func() (any, error) {
					db, err := storage.Open(path, opts)
					if err != nil {
						return nil, err
					}
					db.Close()
					return db, nil
				})
			}
			for entry, open := range opens(bundle) {
				add(magic+" "+store+" in a bundle: "+entry, true, open)
			}
		}
	}

	for _, old := range []struct {
		name      string
		data      []byte
		versioned bool
	}{
		{"flat-varint posting", flatVarint, false},
		{"0x00 0x02 posting", blockedVarint, true},
	} {
		add(old.name+": DecodePosting", old.versioned, func() (any, error) {
			return nilIfEmpty(index.DecodePosting(old.data))
		})
		add(old.name+": DecodePostingUpTo", old.versioned, func() (any, error) {
			return nilIfEmpty(index.DecodePostingUpTo(nil, old.data, 1000))
		})
		add(old.name+": PostingCount", old.versioned, func() (any, error) {
			n, err := index.PostingCount(old.data)
			if n == 0 {
				return nil, err
			}
			return n, err
		})

		// Current stores whose every posting is in the old encoding, as
		// an old bundle's were: every strategy must fail the query, not
		// skip the postings. Each store is rebuilt under the keys of a
		// fresh one.
		dir, bundle := freshBundle(t)
		for _, store := range []string{"c.post", "c.sec"} {
			path := filepath.Join(dir, store)
			keys := storeKeys(t, path)
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
			db, err := storage.Open(path, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, key := range keys {
				if err := db.Put(key, old.data); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
		}
		for _, strategy := range []Strategy{Direct, SchemaDriven, Auto} {
			add(fmt.Sprintf("%s in the stores: Search %v", old.name, strategy), old.versioned, func() (any, error) {
				stored, err := OpenBundle(bundle, PaperCostModel())
				if err != nil {
					t.Fatal(err)
				}
				defer stored.Close()
				return nilIfEmpty(stored.Search(`cd[title["piano"]]`, 0,
					WithStrategy(strategy), WithCostModel(PaperCostModel())))
			})
		}
	}

	for _, c := range cases {
		got, err := c.read()
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if got != nil {
			t.Errorf("%s: returned %v alongside the error", c.name, got)
		}
		if c.versioned != errors.Is(err, ErrUnsupportedVersion) {
			t.Errorf("%s: errors.Is(err, ErrUnsupportedVersion) = %v, want %v: %v",
				c.name, !c.versioned, c.versioned, err)
		}
		if c.versioned && !strings.Contains(err.Error(), "re-run axqlindex") {
			t.Errorf("%s: error does not name the upgrade path: %v", c.name, err)
		}
	}
}

// storeKeys returns the keys of the store at path, in order.
func storeKeys(t *testing.T, path string) [][]byte {
	t.Helper()
	db, err := storage.Open(path, &storage.Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var keys [][]byte
	if err := db.Scan(nil, func(key, _ []byte) bool {
		keys = append(keys, bytes.Clone(key))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return keys
}

// nilIfErr returns an untyped nil for a failed open, so a typed nil pointer
// does not read as a partial result.
func nilIfErr[T any](v *T, err error) (any, error) {
	if err != nil && v == nil {
		return nil, err
	}
	return v, err
}

// nilIfEmpty is nilIfErr for slices.
func nilIfEmpty[T any](v []T, err error) (any, error) {
	if len(v) == 0 {
		return nil, err
	}
	return v, err
}
