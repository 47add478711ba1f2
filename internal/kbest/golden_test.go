package kbest_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"approxql/internal/datagen"
	"approxql/internal/kbest"
	"approxql/internal/lang"
	"approxql/internal/querygen"
	"approxql/internal/schema"
)

var update = flag.Bool("update", false, "rewrite testdata/secondlevel.golden from the current planner")

// goldenWorld is a small collection with few element names and a short
// vocabulary, so that random paper-pattern queries and their renamings
// match many schema classes and the planner sees many cost ties.
func goldenWorld(t testing.TB) (*schema.Schema, *querygen.Generator) {
	t.Helper()
	tree, err := datagen.GenerateTree(datagen.Config{
		Seed: 1, NumElementNames: 20, VocabularySize: 300,
		TargetElements: 3000, TargetWords: 12000,
		TemplateNodes: 60, MaxDepth: 6, MaxRepeat: 3, ZipfSkew: 1.3,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	qg, err := querygen.New(tree, 7)
	if err != nil {
		t.Fatal(err)
	}
	return schema.Build(tree), qg
}

// goldenQueries is the paper catalogue: every paper pattern at 0, 5 and 10
// renamings per label, two queries each.
func goldenQueries(t testing.TB, qg *querygen.Generator) (names []string, xs []*lang.Expanded) {
	t.Helper()
	for _, p := range querygen.PaperPatterns {
		for _, ren := range []int{0, 5, 10} {
			set, err := qg.GenerateSet(p, ren, 2)
			if err != nil {
				t.Fatal(err)
			}
			for i, g := range set {
				names = append(names, fmt.Sprintf("%s renamings=%d #%d %s", p.Name, ren, i, g.Query))
				xs = append(xs, lang.Expand(g.Query, g.Model))
			}
		}
	}
	return names, xs
}

// TestSecondLevelGolden pins the planner's exact output on the paper
// catalogue: for k in {1, 8, 64}, every second-level query's cost, rendering
// and signature, in order. Equal-cost queries must keep their order too, so
// any change to the list algebra that alters a plan or a tie shows here.
// Regenerate with go test ./internal/kbest -run TestSecondLevelGolden -update
// only when a plan change is intended.
func TestSecondLevelGolden(t *testing.T) {
	sch, qg := goldenWorld(t)
	names, xs := goldenQueries(t, qg)
	var got bytes.Buffer
	for qi, x := range xs {
		for _, k := range []int{1, 8, 64} {
			lp, err := kbest.NewEngine(sch, k).SecondLevel(x)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&got, "# %s k=%d: %d queries\n", names[qi], k, len(lp))
			for _, e := range lp {
				fmt.Fprintf(&got, "%d\t%s\t%s\n", e.Cost, kbest.Render(e), kbest.Signature(e))
			}
		}
	}

	path := filepath.Join("testdata", "secondlevel.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w []byte
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("%s:%d differs\n got: %s\nwant: %s", path, i+1, g, w)
		}
	}
}
