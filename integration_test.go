package approxql

import (
	"bytes"
	"context"
	"testing"

	"approxql/internal/datagen"
	"approxql/internal/eval"
	"approxql/internal/exec"
	"approxql/internal/index"
	"approxql/internal/lang"
	"approxql/internal/querygen"
	"approxql/internal/schema"
	"approxql/internal/storage"
)

// TestEndToEndPipeline drives the full production pipeline at moderate
// scale: generate a synthetic collection, serialize and reload it through
// the public API, persist postings and the secondary index into B+tree
// stores, and verify that every access path — in-memory direct, in-memory
// schema-driven, stored postings, stored I_sec — returns identical results
// for generated workloads.
func TestEndToEndPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("integration pipeline")
	}
	cfg := datagen.Config{
		Seed: 77, NumElementNames: 30, VocabularySize: 800,
		TargetElements: 8000, TargetWords: 30000,
		TemplateNodes: 100, MaxDepth: 7, MaxRepeat: 3, ZipfSkew: 1.3,
	}
	tree, err := datagen.GenerateTree(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := tree.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	db, err := ReadDatabase(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Persist postings and I_sec into B+tree stores on disk.
	dir := t.TempDir()
	postDB, err := storage.Open(dir+"/postings.db", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer postDB.Close()
	if err := index.Save(db.Index(), postDB); err != nil {
		t.Fatal(err)
	}
	if err := postDB.Check(); err != nil {
		t.Fatalf("postings store: %v", err)
	}
	stored := index.OpenStored(postDB)

	secDB, err := storage.Open(dir+"/sec.db", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer secDB.Close()
	if err := db.Schema().SaveSec(secDB); err != nil {
		t.Fatal(err)
	}
	if err := secDB.Check(); err != nil {
		t.Fatalf("secondary store: %v", err)
	}
	storedSec := schema.OpenStoredSec(secDB)

	qg, err := querygen.New(db.Tree(), 5)
	if err != nil {
		t.Fatal(err)
	}
	queries := 0
	for _, p := range querygen.PaperPatterns {
		for _, ren := range []int{0, 5} {
			set, err := qg.GenerateSet(p, ren, 3)
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range set {
				queries++
				x := lang.Expand(g.Query, g.Model)
				const n = 10

				memDirect, err := db.Search(g.Query.String(), n,
					WithCostModel(g.Model), WithStrategy(Direct))
				if err != nil {
					t.Fatal(err)
				}
				memSchema, err := db.Search(g.Query.String(), n,
					WithCostModel(g.Model), WithStrategy(SchemaDriven))
				if err != nil {
					t.Fatal(err)
				}
				if !equalCosts(memDirect, memSchema) {
					t.Fatalf("query %s: direct %v vs schema %v", g.Query, memDirect, memSchema)
				}

				// Direct evaluation over stored postings.
				viaStored, err := newStoredEval(db, stored, x, n)
				if err != nil {
					t.Fatal(err)
				}
				if !equalCosts(memDirect, viaStored) {
					t.Fatalf("query %s: stored postings diverge", g.Query)
				}

				// Schema-driven evaluation over the stored I_sec.
				// Items arrive in ascending cost order.
				var viaSec []Result
				err = exec.New(db.Schema(), storedSec, exec.Config{N: n}).Run(
					context.Background(), x, func(it exec.Item) bool {
						viaSec = append(viaSec, Result{Root: it.Root, Cost: it.Cost})
						return len(viaSec) < n
					})
				if err != nil {
					t.Fatal(err)
				}
				if !equalCosts(memDirect, viaSec) {
					t.Fatalf("query %s: stored I_sec diverges", g.Query)
				}
			}
		}
	}
	if queries != 18 {
		t.Fatalf("ran %d queries", queries)
	}
}

func newStoredEval(db *Database, src index.Source, x *lang.Expanded, n int) ([]Result, error) {
	return eval.New(db.Tree(), src).BestN(x, n)
}

func equalCosts(a, b []Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Cost != b[i].Cost {
			return false
		}
	}
	return true
}
