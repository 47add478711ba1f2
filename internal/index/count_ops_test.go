package index

import (
	"strings"
	"testing"

	"approxql/internal/storage"
	"approxql/internal/xmltree"
)

// TestStoredCountPageOps pins the planner's count-probe cost on the
// counter-format (v4) store: StructCount reads one descent plus at most one
// overflow page regardless of posting size, while a full Struct fetch
// materializes the whole overflow chain.
func TestStoredCountPageOps(t *testing.T) {
	// One label with ~200k instances: the delta-encoded posting spans many
	// overflow pages.
	const instances = 200000
	var sb strings.Builder
	sb.WriteString("<catalog>")
	for range instances {
		sb.WriteString("<cd><title>x</title></cd>")
	}
	sb.WriteString("</catalog>")
	tree, err := xmltree.ParseXML(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	ix := Build(tree)

	db, err := storage.Open("", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := Save(ix, db); err != nil {
		t.Fatal(err)
	}
	s := OpenStored(db)

	const maxHeight = 16 // generous bound on the B+tree height

	before := db.PageOps()
	n, err := s.StructCount("cd")
	if err != nil || n != instances {
		t.Fatalf("StructCount = %d, %v, want all instances", n, err)
	}
	countOps := db.PageOps() - before
	if countOps > maxHeight+2 {
		t.Errorf("StructCount touched %d pages, want <= %d (one descent + first overflow page)",
			countOps, maxHeight+2)
	}

	before = db.PageOps()
	post, err := s.Struct("cd")
	if err != nil || len(post) != instances {
		t.Fatalf("Struct = %d entries, %v, want all instances", len(post), err)
	}
	fetchOps := db.PageOps() - before
	if fetchOps <= countOps+4 {
		t.Errorf("Struct touched %d pages, expected well above StructCount's %d (overflow chain)",
			fetchOps, countOps)
	}
}
