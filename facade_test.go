package approxql

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCostModelHelpers(t *testing.T) {
	m := NewCostModel()
	if got := m.DeleteCost("x", Struct); got < Inf {
		t.Errorf("fresh model allows deletion: %d", got)
	}
	parsed, err := ParseCostModel(strings.NewReader("rename struct cd mc 4\ndelete text piano 8\n"))
	if err != nil {
		t.Fatal(err)
	}
	if parsed.RenameCost("cd", "mc", Struct) != 4 {
		t.Error("parsed renaming lost")
	}
	if parsed.DeleteCost("piano", Text) != 8 {
		t.Error("parsed delete cost lost")
	}
	if _, err := ParseCostModel(strings.NewReader("garbage line\n")); err == nil {
		t.Error("garbage cost file accepted")
	}
}

func TestDatabaseStats(t *testing.T) {
	db := buildDB(t)
	st := db.Stats()
	if st.Nodes != db.Len() {
		t.Errorf("Nodes = %d, Len = %d", st.Nodes, db.Len())
	}
	if st.Documents != 1 || st.Elements == 0 || st.Words == 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.SchemaClasses == 0 || st.SchemaClasses > st.Nodes {
		t.Errorf("SchemaClasses = %d", st.SchemaClasses)
	}
	if st.LargestClass < 2 { // two cd instances share a class
		t.Errorf("LargestClass = %d", st.LargestClass)
	}
	if st.Recursivity < 1 || st.MaxDepth < 3 {
		t.Errorf("stats = %+v", st)
	}
}

func TestOpenDatabaseFile(t *testing.T) {
	db := buildDB(t)
	path := filepath.Join(t.TempDir(), "catalog.axdb")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	db2, err := OpenDatabaseFile(path, PaperCostModel())
	if err != nil {
		t.Fatal(err)
	}
	res, err := db2.Search(`cd[title["concerto"]]`, 1, WithCostModel(PaperCostModel()))
	if err != nil || len(res) != 1 || res[0].Cost != 0 {
		t.Errorf("search after reload = %v, %v", res, err)
	}
	if _, err := OpenDatabaseFile(filepath.Join(t.TempDir(), "missing.axdb"), nil); err == nil {
		t.Error("missing file accepted")
	}
	// A corrupt file is rejected with the path in the error.
	bad := filepath.Join(t.TempDir(), "bad.axdb")
	os.WriteFile(bad, []byte("not a collection"), 0o644)
	if _, err := OpenDatabaseFile(bad, nil); err == nil || !strings.Contains(err.Error(), "bad.axdb") {
		t.Errorf("corrupt file error = %v", err)
	}
}

func TestCustomTokenizer(t *testing.T) {
	b := NewBuilder(nil)
	// A tokenizer that keeps hyphenated words whole (lowercased).
	b.SetTokenizer(func(s string) []string {
		var out []string
		for _, w := range strings.Fields(strings.ToLower(s)) {
			out = append(out, strings.Trim(w, ".,"))
		}
		return out
	})
	if err := b.AddXMLString(`<doc><code>ab-42 done.</code></doc>`); err != nil {
		t.Fatal(err)
	}
	db, err := b.Database()
	if err != nil {
		t.Fatal(err)
	}
	// The hyphenated token is one word now. Query-side normalization
	// still splits, so query through the index directly.
	post, err := db.Index().Text("ab-42")
	if err != nil || len(post) != 1 {
		t.Errorf("custom token posting = %v, %v", post, err)
	}
	res, err := db.Search(`doc[code["done"]]`, 1)
	if err != nil || len(res) != 1 {
		t.Errorf("search over custom tokens = %v, %v", res, err)
	}
}
