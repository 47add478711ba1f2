package schema

import (
	"reflect"
	"testing"

	"approxql/internal/cost"
	"approxql/internal/index"
	"approxql/internal/storage"
	"approxql/internal/xmltree"
)

func TestSecSourceMemoryAndStoredAgree(t *testing.T) {
	_, s := buildSchema(t, catalogXML, nil)
	db, err := storage.Open("", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := s.SaveSec(db); err != nil {
		t.Fatalf("SaveSec: %v", err)
	}
	stored := OpenStoredSec(db)

	for c := NodeID(0); c < NodeID(s.Len()); c++ {
		if s.Kind(c) == cost.Text {
			continue
		}
		memPost, err := s.SecInstances(c)
		if err != nil {
			t.Fatal(err)
		}
		storedPost, err := stored.SecInstances(c)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(memPost, storedPost) {
			t.Errorf("class %d: memory %v vs stored %v", c, memPost, storedPost)
		}
	}
	s.ForEachTermPosting(func(class NodeID, term string, count int) {
		memPost, err := s.SecTermInstances(class, term)
		if err != nil {
			t.Fatal(err)
		}
		if len(memPost) != count {
			t.Errorf("class %d term %q: posting %d, reported count %d",
				class, term, len(memPost), count)
		}
		storedPost, err := stored.SecTermInstances(class, term)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(memPost, storedPost) {
			t.Errorf("class %d term %q: memory %v vs stored %v", class, term, memPost, storedPost)
		}
	})

	// A second read comes from the cache and still agrees.
	cls := s.TextClasses("piano")[0]
	again, err := stored.SecTermInstances(cls, "piano")
	if err != nil || len(again) == 0 {
		t.Errorf("cached read = %v, %v", again, err)
	}
	// Missing keys are empty, not errors.
	if post, err := stored.SecInstances(NodeID(s.Len()) + 100); err != nil || post != nil {
		t.Errorf("missing class = %v, %v", post, err)
	}
}

func TestSecKeysDisjoint(t *testing.T) {
	// Struct and term keys for the same class never collide, and term
	// keys embed the term after a separator.
	k1 := secStructKey(nil, 7)
	k2 := secTermKey(nil, 7, "piano")
	k3 := secTermKey(nil, 7, "pian")
	if string(k1) == string(k2) || string(k2) == string(k3) {
		t.Errorf("colliding keys: %q %q %q", k1, k2, k3)
	}
}

func TestSchemaTreeAccessors(t *testing.T) {
	tree, s := buildSchema(t, catalogXML, nil)
	if s.Tree() != tree {
		t.Error("Tree accessor mismatch")
	}
	// Bound covers the subtree: the root class bounds everything.
	if s.Bound(0) != NodeID(s.Len())-1 {
		t.Errorf("root bound = %d", s.Bound(0))
	}
	for c := NodeID(1); c < NodeID(s.Len()); c++ {
		if s.Bound(c) < c || s.Bound(c) > s.Bound(s.Parent(c)) {
			t.Errorf("class %d bound %d out of range", c, s.Bound(c))
		}
	}
	_ = tree
}

// TestSaveSecReadOnlyFails ensures storage errors propagate.
func TestSaveSecReadOnlyFails(t *testing.T) {
	_, s := buildSchema(t, catalogXML, nil)
	path := t.TempDir() + "/sec.db"
	db, err := storage.Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SaveSec(db); err != nil {
		t.Fatal(err)
	}
	db.Close()
	ro, err := storage.Open(path, &storage.Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if err := s.SaveSec(ro); err == nil {
		t.Error("SaveSec on a read-only store succeeded")
	}
	_ = xmltree.NodeID(0)
}

// TestStoredSecWarmFetchAllocs checks that a cached I_sec fetch, bounded or
// not, allocates nothing: keys are built in stack buffers and the cache is
// indexed by them without materializing a string.
func TestStoredSecWarmFetchAllocs(t *testing.T) {
	_, s := buildSchema(t, catalogXML, nil)
	db, err := storage.Open("", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := s.SaveSec(db); err != nil {
		t.Fatal(err)
	}
	stored := OpenStoredSec(db)
	stored.SetCache(index.NewLRU(64))
	cd := s.StructClasses("cd")[0]
	text := s.TextClasses("piano")[0]
	fetches := map[string]func() error{
		"SecInstancesUpTo": func() error {
			_, err := stored.SecInstancesUpTo(cd, 5)
			return err
		},
		"SecTermInstancesUpTo": func() error {
			_, err := stored.SecTermInstancesUpTo(text, "piano", 5)
			return err
		},
		"SecInstances": func() error {
			_, err := stored.SecInstances(cd)
			return err
		},
		"SecTermInstances": func() error {
			_, err := stored.SecTermInstances(text, "piano")
			return err
		},
	}
	for name, fetch := range fetches {
		if err := fetch(); err != nil { // warm the cache
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() { fetch() }); n != 0 {
			t.Errorf("warm %s allocates %v times", name, n)
		}
	}
}
