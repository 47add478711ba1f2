package xmltree

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"

	"approxql/internal/cost"
	"approxql/internal/dict"
)

func TestTreeSerializationRoundTrip(t *testing.T) {
	tree := mustParse(t, paperDataXML, `<dvd><title>Sonata</title></dvd>`)
	var buf bytes.Buffer
	if _, err := tree.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	got, err := ReadTree(bytes.NewReader(buf.Bytes()), nil)
	if err != nil {
		t.Fatalf("ReadTree: %v", err)
	}
	assertTreesEqual(t, tree, got)
}

func TestTreeSerializationWithModel(t *testing.T) {
	model := cost.PaperExample()
	b := NewBuilder(model)
	if err := b.AddDocument(strings.NewReader(paperDataXML)); err != nil {
		t.Fatal(err)
	}
	tree, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := tree.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTree(bytes.NewReader(buf.Bytes()), model)
	if err != nil {
		t.Fatal(err)
	}
	assertTreesEqual(t, tree, got)
}

func TestTreeFileUsesPackedDicts(t *testing.T) {
	tree := mustParse(t, paperDataXML)
	var buf bytes.Buffer
	if _, err := tree.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte("AXQLTREE2\n")) {
		t.Fatalf("WriteTo emitted magic %q, want AXQLTREE2", buf.Bytes()[:10])
	}
	got, err := ReadTree(bytes.NewReader(buf.Bytes()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got.Names.(*dict.Packed); !ok {
		t.Errorf("load produced %T names, want *dict.Packed", got.Names)
	}
	if _, ok := got.Terms.(*dict.Packed); !ok {
		t.Errorf("load produced %T terms, want *dict.Packed", got.Terms)
	}
}

func TestReadTreeRejectsGarbage(t *testing.T) {
	// Two nodes, one name, one term, then a first node whose bound lies
	// past the tree.
	boundOutOfRange := []byte(treeMagic + "\x02")
	for _, strs := range [][]string{{"a"}, {"w"}} {
		blob := dict.Pack(strs)
		boundOutOfRange = binary.AppendUvarint(boundOutOfRange, uint64(len(blob)))
		boundOutOfRange = append(boundOutOfRange, blob...)
	}
	boundOutOfRange = append(boundOutOfRange, 0x00, 0x05)
	cases := [][]byte{
		nil,
		[]byte("bogus"),
		[]byte(treeMagic),          // missing everything after magic
		[]byte(treeMagic + "\x00"), // zero nodes
		boundOutOfRange,
	}
	for i, c := range cases {
		if _, err := ReadTree(bytes.NewReader(c), nil); err == nil {
			t.Errorf("case %d: ReadTree accepted garbage", i)
		}
	}
}

func TestRoundTripRandomTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		tree := randomTree(rng, 60)
		var buf bytes.Buffer
		if _, err := tree.WriteTo(&buf); err != nil {
			t.Fatalf("trial %d: WriteTo: %v", trial, err)
		}
		got, err := ReadTree(bytes.NewReader(buf.Bytes()), nil)
		if err != nil {
			t.Fatalf("trial %d: ReadTree: %v", trial, err)
		}
		assertTreesEqual(t, tree, got)
	}
}

func TestReencode(t *testing.T) {
	tree := mustParse(t, paperDataXML) // default model: all inserts cost 1
	re := tree.Reencode(cost.PaperExample())
	if err := re.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	var tracks, vivace NodeID = -1, -1
	for u := NodeID(0); u < NodeID(re.Len()); u++ {
		switch re.Label(u) {
		case "tracks":
			tracks = u
		case "vivace":
			vivace = u
		}
	}
	if got := tree.Distance(tracks, vivace); got != 2 { // default costs: track 1 + title 1
		t.Errorf("default Distance = %d, want 2", got)
	}
	if got := re.Distance(tracks, vivace); got != 4 { // paper costs: track 1 + title 3
		t.Errorf("reencoded Distance = %d, want 4", got)
	}
}

// randomTree builds a random small tree via the Builder.
func randomTree(rng *rand.Rand, maxNodes int) *Tree {
	b := NewBuilder(nil)
	names := []string{"a", "b", "c", "d"}
	terms := []string{"x", "y", "z"}
	n := 1 + rng.Intn(maxNodes)
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
		panic(err)
	}
	return tree
}

func assertTreesEqual(t *testing.T, want, got *Tree) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("Len = %d, want %d", got.Len(), want.Len())
	}
	for u := NodeID(0); u < NodeID(want.Len()); u++ {
		if got.Label(u) != want.Label(u) {
			t.Fatalf("Label(%d) = %q, want %q", u, got.Label(u), want.Label(u))
		}
		if got.Kind(u) != want.Kind(u) {
			t.Fatalf("Kind(%d) = %v, want %v", u, got.Kind(u), want.Kind(u))
		}
		if got.Parent(u) != want.Parent(u) {
			t.Fatalf("Parent(%d) = %d, want %d", u, got.Parent(u), want.Parent(u))
		}
		if got.Bound(u) != want.Bound(u) {
			t.Fatalf("Bound(%d) = %d, want %d", u, got.Bound(u), want.Bound(u))
		}
		if got.InsCost(u) != want.InsCost(u) {
			t.Fatalf("InsCost(%d) = %d, want %d", u, got.InsCost(u), want.InsCost(u))
		}
		if got.PathCost(u) != want.PathCost(u) {
			t.Fatalf("PathCost(%d) = %d, want %d", u, got.PathCost(u), want.PathCost(u))
		}
	}
}
