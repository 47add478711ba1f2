package schema

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"approxql/internal/cost"
	"approxql/internal/xmltree"
)

const catalogXML = `
<catalog>
  <cd>
    <title>Piano Concerto</title>
    <composer>Rachmaninov</composer>
  </cd>
  <cd>
    <title>Piano Sonata</title>
    <composer>Beethoven</composer>
  </cd>
  <mc>
    <title>Concerto</title>
  </mc>
</catalog>`

func buildSchema(t *testing.T, xml string, model *cost.Model) (*xmltree.Tree, *Schema) {
	t.Helper()
	b := xmltree.NewBuilder(model)
	if err := b.AddDocument(strings.NewReader(xml)); err != nil {
		t.Fatal(err)
	}
	tree, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	s := Build(tree)
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return tree, s
}

func TestSchemaCollapsesEqualPaths(t *testing.T) {
	_, s := buildSchema(t, catalogXML, nil)
	// Classes: <root>, catalog, cd, cd/title, cd/title/#text,
	// cd/composer, cd/composer/#text, mc, mc/title, mc/title/#text.
	if s.Len() != 10 {
		t.Fatalf("schema has %d classes, want 10", s.Len())
	}
	// Both cd elements share one class.
	if got := len(s.StructClasses("cd")); got != 1 {
		t.Errorf("cd classes = %d, want 1", got)
	}
	// title appears under cd and under mc: two classes.
	if got := len(s.StructClasses("title")); got != 2 {
		t.Errorf("title classes = %d, want 2", got)
	}
	cdClass := s.StructClasses("cd")[0]
	if got := len(s.Instances(cdClass)); got != 2 {
		t.Errorf("cd instances = %d, want 2", got)
	}
}

func TestTextClassesAreCompacted(t *testing.T) {
	_, s := buildSchema(t, catalogXML, nil)
	// "concerto" occurs under cd/title and under mc/title.
	classes := s.TextClasses("concerto")
	if len(classes) != 2 {
		t.Fatalf("concerto text classes = %v, want 2", classes)
	}
	// "piano" occurs only under cd/title, in the same compacted class as
	// "concerto" there.
	pianoClasses := s.TextClasses("piano")
	if len(pianoClasses) != 1 {
		t.Fatalf("piano text classes = %v", pianoClasses)
	}
	found := false
	for _, c := range classes {
		if c == pianoClasses[0] {
			found = true
		}
	}
	if !found {
		t.Error("piano and concerto under cd/title do not share a text class")
	}
	if got := s.TextClasses("zzz"); got != nil {
		t.Errorf("TextClasses(zzz) = %v", got)
	}
}

func TestTermInstances(t *testing.T) {
	tree, s := buildSchema(t, catalogXML, nil)
	cls := s.TextClasses("piano")[0]
	inst := s.TermInstances(cls, "piano")
	if len(inst) != 2 {
		t.Fatalf("piano instances = %v, want 2", inst)
	}
	for _, u := range inst {
		if tree.Label(u) != "piano" {
			t.Errorf("instance %d labeled %q", u, tree.Label(u))
		}
		if s.ClassOf(u) != cls {
			t.Errorf("instance %d in class %d, want %d", u, s.ClassOf(u), cls)
		}
	}
	if got := s.TermInstances(cls, "sonata"); len(got) != 1 {
		t.Errorf("sonata instances in cd/title class = %v", got)
	}
	if got := s.TermInstances(cls, "rachmaninov"); got != nil {
		t.Errorf("rachmaninov instances in title class = %v", got)
	}
}

func TestClassPreservesParentChild(t *testing.T) {
	tree, s := buildSchema(t, catalogXML, nil)
	for u := xmltree.NodeID(1); u < xmltree.NodeID(tree.Len()); u++ {
		p := tree.Parent(u)
		if s.Parent(s.ClassOf(u)) != s.ClassOf(p) {
			t.Fatalf("node %d: class parent mismatch", u)
		}
	}
}

func TestSchemaEncodingMatchesPaperCosts(t *testing.T) {
	tree, s := buildSchema(t, `
<catalog>
  <cd><tracks><track><title>Vivace</title></track></tracks></cd>
</catalog>`, cost.PaperExample())
	// distance(class(tracks), class(vivace)) must equal the data-tree
	// distance 4 (track 1 + title 3, Section 6.2 example).
	var tracks, vivace xmltree.NodeID = -1, -1
	for u := xmltree.NodeID(0); u < xmltree.NodeID(tree.Len()); u++ {
		switch tree.Label(u) {
		case "tracks":
			tracks = u
		case "vivace":
			vivace = u
		}
	}
	cu, cv := s.ClassOf(tracks), s.ClassOf(vivace)
	got := s.PathCost(cv) - s.PathCost(cu) - s.InsCost(cu)
	if got != 4 {
		t.Errorf("schema distance = %d, want 4", got)
	}
}

func TestLabelTypePath(t *testing.T) {
	_, s := buildSchema(t, catalogXML, nil)
	cls := s.TextClasses("rachmaninov")[0]
	if got := s.LabelTypePath(cls); got != "<root>/catalog/cd/composer/#text" {
		t.Errorf("LabelTypePath = %q", got)
	}
}

func TestRecursiveSchema(t *testing.T) {
	_, s := buildSchema(t, `<a><a><a>x</a></a><b><a>y</a></b></a>`, nil)
	// Paths: <root>, a, a/a, a/a/a, a/a/a/#text, a/b, a/b/a, a/b/a/#text.
	if s.Len() != 8 {
		t.Fatalf("classes = %d, want 8", s.Len())
	}
	if got := len(s.StructClasses("a")); got != 4 {
		t.Errorf("a classes = %d, want 4", got)
	}
}

func TestSchemaMuchSmallerThanData(t *testing.T) {
	// 50 identical documents must share all classes.
	var b strings.Builder
	b.WriteString("<lib>")
	for i := 0; i < 50; i++ {
		b.WriteString("<cd><title>t</title><artist>a</artist></cd>")
	}
	b.WriteString("</lib>")
	tree, s := buildSchema(t, b.String(), nil)
	if s.Len() != 7 {
		t.Fatalf("classes = %d, want 7", s.Len())
	}
	if tree.Len() < 200 {
		t.Fatalf("tree suspiciously small: %d", tree.Len())
	}
	st := s.ComputeStats()
	if st.MaxInstances != 50 {
		t.Errorf("MaxInstances = %d, want 50", st.MaxInstances)
	}
}

func TestRandomTreesValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	names := []string{"a", "b", "c"}
	terms := []string{"x", "y"}
	for trial := 0; trial < 40; trial++ {
		b := xmltree.NewBuilder(nil)
		n := 3 + rng.Intn(80)
		var emit func(depth int)
		emit = func(depth int) {
			if b.Len() >= n {
				return
			}
			b.BeginElement(names[rng.Intn(len(names))])
			for b.Len() < n && rng.Intn(3) != 0 {
				if depth < 6 && rng.Intn(2) == 0 {
					emit(depth + 1)
				} else {
					b.Word(terms[rng.Intn(len(terms))])
				}
			}
			b.End()
		}
		for b.Len() < n {
			emit(0)
		}
		tree, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		s := Build(tree)
		if err := s.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Every label-type path occurs exactly once (Definition 14):
		// distinct data paths == schema classes.
		paths := make(map[string]bool)
		for u := xmltree.NodeID(0); u < xmltree.NodeID(tree.Len()); u++ {
			p := tree.LabelTypePath(u)
			if tree.Kind(u) == cost.Text {
				// Compacted: the word itself is not part of the path.
				p = tree.LabelTypePath(tree.Parent(u)) + "/#text"
			}
			paths[p] = true
		}
		if len(paths) != s.Len() {
			t.Fatalf("trial %d: %d distinct paths, %d classes", trial, len(paths), s.Len())
		}
	}
}

func TestInstancesPartitionNodes(t *testing.T) {
	tree, s := buildSchema(t, catalogXML, nil)
	seen := make(map[xmltree.NodeID]bool)
	for c := NodeID(0); c < NodeID(s.Len()); c++ {
		for _, u := range s.Instances(c) {
			if seen[u] {
				t.Fatalf("node %d in two classes", u)
			}
			seen[u] = true
		}
	}
	if len(seen) != tree.Len() {
		t.Fatalf("instances cover %d of %d nodes", len(seen), tree.Len())
	}
}

func TestStructClassesMissing(t *testing.T) {
	_, s := buildSchema(t, catalogXML, nil)
	if got := s.StructClasses("dvd"); got != nil {
		t.Errorf("StructClasses(dvd) = %v", got)
	}
}

func TestStatsAndLabels(t *testing.T) {
	_, s := buildSchema(t, catalogXML, nil)
	st := s.ComputeStats()
	if st.Classes != s.Len() {
		t.Errorf("Classes = %d", st.Classes)
	}
	if st.MaxDepth != 4 { // <root>/catalog/cd/title/#text
		t.Errorf("MaxDepth = %d, want 4", st.MaxDepth)
	}
	cls := s.TextClasses("piano")[0]
	if s.Label(cls) != "#text" {
		t.Errorf("text class label = %q", s.Label(cls))
	}
	if s.Kind(cls) != cost.Text {
		t.Errorf("text class kind = %v", s.Kind(cls))
	}
}

func TestSchemaOfSingleDocument(t *testing.T) {
	tree, s := buildSchema(t, `<a>w</a>`, nil)
	if s.Len() != 3 {
		t.Fatalf("classes = %d, want 3", s.Len())
	}
	if s.ClassOf(0) != 0 {
		t.Error("super-root class is not 0")
	}
	if !reflect.DeepEqual(s.Instances(0), []xmltree.NodeID{0}) {
		t.Errorf("root instances = %v", s.Instances(0))
	}
	_ = tree
}

// TestClassMemoMatchesDictionary checks that the memoized StructClasses and
// TextClasses return, on first and repeated calls, the index posting of the
// label's dictionary ID for every label of the tree, and that absent labels
// are answered without being retained.
func TestClassMemoMatchesDictionary(t *testing.T) {
	tree, s := buildSchema(t, catalogXML, nil)
	for pass := 0; pass < 2; pass++ {
		for _, name := range tree.Names.Strings() {
			want := s.structIndex[tree.Names.Lookup(name)]
			if got := s.StructClasses(name); !reflect.DeepEqual(got, want) {
				t.Errorf("pass %d: StructClasses(%q) = %v, want %v", pass, name, got, want)
			}
		}
		for _, term := range tree.Terms.Strings() {
			want := s.textIndex[tree.Terms.Lookup(term)]
			if got := s.TextClasses(term); !reflect.DeepEqual(got, want) {
				t.Errorf("pass %d: TextClasses(%q) = %v, want %v", pass, term, got, want)
			}
		}
	}
	names, terms := len(s.structMemo.m), len(s.textMemo.m)
	if names != tree.Names.Len() || terms != tree.Terms.Len() {
		t.Errorf("memo holds %d names and %d terms, dictionary %d and %d",
			names, terms, tree.Names.Len(), tree.Terms.Len())
	}
	for i := 0; i < 50; i++ {
		absent := fmt.Sprintf("absent-%d", i)
		if s.StructClasses(absent) != nil || s.TextClasses(absent) != nil {
			t.Fatalf("absent label %q has classes", absent)
		}
	}
	if len(s.structMemo.m) != names || len(s.textMemo.m) != terms {
		t.Errorf("absent labels retained: memo grew to %d names and %d terms",
			len(s.structMemo.m), len(s.textMemo.m))
	}
}

// TestConcurrentClassMemo resolves labels from several goroutines at once,
// present and absent, so that memo misses, fills and hits interleave (run
// under -race).
func TestConcurrentClassMemo(t *testing.T) {
	tree, s := buildSchema(t, catalogXML, nil)
	labels := append(tree.Names.Strings(), "dvd", "missing")
	terms := append(tree.Terms.Strings(), "nope")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				name := labels[(g+i)%len(labels)]
				if got, want := s.StructClasses(name), s.structIndex[tree.Names.Lookup(name)]; !reflect.DeepEqual(got, want) {
					t.Errorf("StructClasses(%q) = %v, want %v", name, got, want)
					return
				}
				term := terms[(g+i)%len(terms)]
				if got, want := s.TextClasses(term), s.textIndex[tree.Terms.Lookup(term)]; !reflect.DeepEqual(got, want) {
					t.Errorf("TextClasses(%q) = %v, want %v", term, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
