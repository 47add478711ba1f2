package kbest_test

import (
	"testing"

	"approxql/internal/cost"
	"approxql/internal/eval"
	"approxql/internal/exec"
	"approxql/internal/index"
	"approxql/internal/lang"
	"approxql/internal/schema"
	"approxql/internal/storage"
)

// TestStoredSecondaryMatchesMemory runs the full schema-driven evaluation
// with the secondary index served from the embedded B+tree store (the
// paper's Berkeley DB role) and cross-checks against the in-memory I_sec
// and the direct evaluation.
func TestStoredSecondaryMatchesMemory(t *testing.T) {
	tree, sch := buildCatalog(t)
	ix := index.Build(tree)
	model := cost.PaperExample()

	db, err := storage.Open("", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := sch.SaveSec(db); err != nil {
		t.Fatalf("SaveSec: %v", err)
	}
	stored := schema.OpenStoredSec(db)

	queries := []string{
		`cd[title["concerto"]]`,
		`cd[title["piano" and "concerto"]]`,
		`cd[title["concerto" or "sonata"]]`,
		`cd[track[title["piano" and "concerto"]] and composer["rachmaninov"]]`,
	}
	for _, src := range queries {
		x := lang.Expand(lang.MustParse(src), model)
		direct, err := eval.New(tree, ix).BestN(x, 0)
		if err != nil {
			t.Fatal(err)
		}
		mem, _, err := bestN(sch, sch, x, 0, exec.Config{})
		if err != nil {
			t.Fatal(err)
		}
		viaStore, _, err := bestN(sch, stored, x, 0, exec.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if !sameResults(direct, viaStore) || !sameResults(mem, viaStore) {
			t.Errorf("query %s:\ndirect: %v\nmemory: %v\nstored: %v", src, direct, mem, viaStore)
		}
	}
}

// TestStoredSecondaryPersists reloads the I_sec store from disk.
func TestStoredSecondaryPersists(t *testing.T) {
	tree, sch := buildCatalog(t)
	_ = tree
	path := t.TempDir() + "/sec.db"
	db, err := storage.Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sch.SaveSec(db); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := storage.Open(path, &storage.Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	stored := schema.OpenStoredSec(db2)

	// Every class's posting must round-trip.
	for c := schema.NodeID(0); c < schema.NodeID(sch.Len()); c++ {
		if sch.Kind(c) == cost.Text {
			continue
		}
		want := sch.Instances(c)
		got, err := stored.SecInstances(c)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("class %d: %d instances, want %d", c, len(got), len(want))
		}
	}
	// Term postings too.
	for _, term := range []string{"piano", "concerto", "sonata", "rachmaninov", "vivace"} {
		for _, c := range sch.TextClasses(term) {
			want := sch.TermInstances(c, term)
			got, err := stored.SecTermInstances(c, term)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("term %q class %d: %d instances, want %d", term, c, len(got), len(want))
			}
		}
	}
	// Missing keys yield empty postings.
	if got, err := stored.SecTermInstances(1, "zzz"); err != nil || got != nil {
		t.Errorf("missing term posting = %v, %v", got, err)
	}
}
