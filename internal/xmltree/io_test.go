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

// TestReadTreeHostileSizes feeds headers that claim huge node counts and
// dictionary sizes over almost no data. Sizing buffers from such a header
// ends the process with an out-of-memory fatal error, which no recover
// catches; ReadTree must fail with an error instead.
func TestReadTreeHostileSizes(t *testing.T) {
	maxNodes := binary.AppendUvarint([]byte(treeMagic), 1<<31)
	hugeDict := append(binary.AppendUvarint([]byte(treeMagic), 2), 0x80, 0x80, 0x80, 0x80, 0x20) // 1<<33 bytes
	manyNodes := binary.AppendUvarint([]byte(treeMagic), 1<<31)
	for _, strs := range [][]string{{"a"}, {"w"}} {
		blob := dict.Pack(strs)
		manyNodes = binary.AppendUvarint(manyNodes, uint64(len(blob)))
		manyNodes = append(manyNodes, blob...)
	}
	manyNodes = append(manyNodes, 0x00, 0x00)
	for name, c := range map[string][]byte{
		"node count only":  maxNodes,
		"dictionary size":  hugeDict,
		"one node of 2^31": manyNodes,
	} {
		if _, err := ReadTree(bytes.NewReader(c), nil); err == nil {
			t.Errorf("%s: ReadTree accepted a %d-byte file", name, len(c))
		}
	}
}

// FuzzReadTree checks that no input makes ReadTree panic or exhaust memory:
// every input either loads into a tree that validates or fails with an
// error.
func FuzzReadTree(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 4; i++ {
		var buf bytes.Buffer
		if _, err := randomTree(rng, 20).WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add(binary.AppendUvarint([]byte(treeMagic), 1<<31))
	f.Fuzz(func(t *testing.T, data []byte) {
		tree, err := ReadTree(bytes.NewReader(data), nil)
		if err != nil {
			return
		}
		if err := tree.Validate(); err != nil {
			t.Fatalf("ReadTree returned a tree that fails Validate: %v", err)
		}
		for u := NodeID(0); u < NodeID(tree.Len()); u++ {
			tree.Label(u)
		}
	})
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
