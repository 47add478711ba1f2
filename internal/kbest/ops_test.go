package kbest

import (
	"context"
	"slices"
	"strings"
	"testing"

	"approxql/internal/cost"
	"approxql/internal/schema"
	"approxql/internal/xmltree"
)

// opsSchema builds a small schema with known class numbers:
//
//	0 <root>
//	1   lib
//	2     cd        (two instances)
//	3       title
//	4         #text (piano, concerto / sonata)
//	5     mc
//	6       title
//	7         #text (concerto)
func opsSchema(t *testing.T) *schema.Schema {
	t.Helper()
	tree, err := xmltree.ParseXML(`
<lib>
  <cd><title>piano concerto</title></cd>
  <cd><title>sonata</title></cd>
  <mc><title>concerto</title></mc>
</lib>`)
	if err != nil {
		t.Fatal(err)
	}
	sch := schema.Build(tree)
	if err := sch.Validate(); err != nil {
		t.Fatal(err)
	}
	return sch
}

// opsPlanner returns a planner over opsSchema that goes back to the pool
// when the test ends.
func opsPlanner(t *testing.T) *planner {
	t.Helper()
	p := getPlanner(opsSchema(t), context.Background())
	t.Cleanup(func() { putPlanner(p) })
	return p
}

func classesOf(p *planner, l list) []schema.NodeID {
	out := make([]schema.NodeID, l.n)
	for i, s := range p.at(l) {
		out[i] = p.segs[s].class
	}
	return out
}

// entriesOf reads segment s to its end and returns its nodes in order.
func entriesOf(p *planner, s int32) []int32 {
	var out []int32
	for c := p.next(s, -1); c >= 0; c = p.next(s, c) {
		out = append(out, p.cells[c].node)
	}
	return out
}

// segmentsOf reads every class segment of l to its end.
func segmentsOf(p *planner, l list) [][]int32 {
	var out [][]int32
	for _, s := range p.at(l) {
		out = append(out, entriesOf(p, s))
	}
	return out
}

// kidsOf returns the pointer run of node i.
func kidsOf(p *planner, i int32) []int32 {
	n := p.nodes[i]
	return p.kids[n.kids : n.kids+n.nkids]
}

func labelOf(p *planner, i int32) string { return p.fetches[p.nodes[i].fetch].label }

// leaves returns the leaf-marked list of fetch(label, kind).
func (p *planner) leaves(label string, kind cost.Kind) list {
	return p.leafList(p.fetch(label, kind))
}

func TestFetchSchemaClasses(t *testing.T) {
	p := opsPlanner(t)
	classes := func(label string, kind cost.Kind) int32 { return p.fetches[p.fetch(label, kind)].n }
	if n := classes("cd", cost.Struct); n != 1 {
		t.Fatalf("cd classes = %d", n)
	}
	if n := classes("title", cost.Struct); n != 2 {
		t.Fatalf("title classes = %d", n)
	}
	if n := classes("concerto", cost.Text); n != 2 { // cd/title/#text and mc/title/#text
		t.Fatalf("concerto classes = %d", n)
	}
	if n := classes("piano", cost.Text); n != 1 {
		t.Fatalf("piano classes = %d", n)
	}
	// Fetch is cached: same fetch, same nodes.
	nodes := len(p.nodes)
	if p.fetch("cd", cost.Struct) != 0 || len(p.nodes) != nodes || p.stats.Fetches != 4 {
		t.Error("fetch not cached")
	}
	if classes("zzz", cost.Text) != 0 {
		t.Error("missing label returned classes")
	}
}

func TestMergeSharedTextClass(t *testing.T) {
	p := opsPlanner(t)
	// piano and concerto share the cd/title text class: the merged list
	// holds a two-entry segment there plus concerto's mc class.
	l := p.union([]list{p.leaves("concerto", cost.Text), p.bump(p.leaves("piano", cost.Text), 3)})
	segs := segmentsOf(p, l)
	if len(segs) != 2 {
		t.Fatalf("segments = %d, want 2", len(segs))
	}
	for _, seg := range segs {
		if len(seg) == 2 {
			// Within the shared segment the cheaper (original concerto,
			// cost 0) precedes the renamed piano (cost 3).
			if p.nodes[seg[0]].cost != 0 || p.nodes[seg[1]].cost != 3 {
				t.Errorf("shared segment costs = %d, %d", p.nodes[seg[0]].cost, p.nodes[seg[1]].cost)
			}
			if labelOf(p, seg[1]) != "piano" {
				t.Errorf("renamed entry label = %q", labelOf(p, seg[1]))
			}
		}
	}
}

func TestJoinBuildsPointers(t *testing.T) {
	p := opsPlanner(t)
	j := p.join(p.fetch("title", cost.Struct), p.leaves("concerto", cost.Text))
	if j.n != 2 {
		t.Fatalf("join = %v", classesOf(p, j))
	}
	for _, seg := range segmentsOf(p, j) {
		if len(seg) != 1 {
			t.Fatalf("join segment = %v", seg)
		}
		e := p.nodes[seg[0]]
		kids := kidsOf(p, seg[0])
		if len(kids) != 1 {
			t.Fatalf("entry without pointer: %+v", e)
		}
		if labelOf(p, kids[0]) != "concerto" {
			t.Errorf("pointer label = %q", labelOf(p, kids[0]))
		}
		if !e.hasLeaf {
			t.Error("leaf flag lost through join")
		}
		// Text classes are direct children of title classes: distance 0.
		if e.cost != 0 {
			t.Errorf("join cost = %d", e.cost)
		}
	}
}

func TestOuterjoinAddsDeletionAlternative(t *testing.T) {
	p := opsPlanner(t)
	o := p.outerjoin(p.fetch("title", cost.Struct), p.leaves("piano", cost.Text), 6)
	// cd/title: match (cost 0) + deletion (cost 6); mc/title: deletion only.
	var sizes []int
	for _, seg := range segmentsOf(p, o) {
		sizes = append(sizes, len(seg))
		for _, i := range seg {
			e, kids := p.nodes[i], kidsOf(p, i)
			if len(kids) == 0 && (e.hasLeaf || e.cost != 6) {
				t.Errorf("deletion entry = %+v", e)
			}
			if len(kids) == 1 && (!e.hasLeaf || e.cost != 0) {
				t.Errorf("match entry = %+v", e)
			}
		}
	}
	if len(sizes) != 2 || sizes[0] != 2 || sizes[1] != 1 {
		t.Fatalf("segment sizes = %v", sizes)
	}
}

func TestIntersectUnionsPointers(t *testing.T) {
	p := opsPlanner(t)
	titles := p.fetch("title", cost.Struct)
	piano := p.join(titles, p.leaves("piano", cost.Text))
	concerto := p.join(titles, p.leaves("concerto", cost.Text))
	x := p.intersect(piano, concerto)
	// Only the cd/title class contains both terms.
	if x.n != 1 {
		t.Fatalf("intersect = %v", classesOf(p, x))
	}
	seg := segmentsOf(p, x)[0]
	if len(seg) != 1 {
		t.Fatalf("intersect segment = %v", seg)
	}
	kids := kidsOf(p, seg[0])
	if len(kids) != 2 {
		t.Fatalf("pointer set = %v", kids)
	}
	labels := []string{labelOf(p, kids[0]), labelOf(p, kids[1])}
	if joined := strings.Join(labels, ","); joined != "piano,concerto" {
		t.Errorf("pointer labels = %v, want the left side's first", labels)
	}
}

func TestUnionKeepsAlternatives(t *testing.T) {
	p := opsPlanner(t)
	titles := p.fetch("title", cost.Struct)
	piano := p.join(titles, p.leaves("piano", cost.Text))
	sonata := p.join(titles, p.leaves("sonata", cost.Text))
	u := p.union([]list{piano, p.bump(sonata, 2)})
	// cd/title holds both alternatives as separate skeletons.
	found := false
	for _, seg := range segmentsOf(p, u) {
		if len(seg) == 2 {
			found = true
			if p.nodes[seg[0]].cost != 0 || p.nodes[seg[1]].cost != 2 {
				t.Errorf("union segment costs = %d, %d", p.nodes[seg[0]].cost, p.nodes[seg[1]].cost)
			}
		}
	}
	if !found {
		t.Error("no two-alternative segment in union")
	}
	// An empty operand leaves the other list as it is.
	empty := p.leaves("zzz", cost.Text)
	if p.union([]list{piano, empty}) != piano || p.union([]list{empty, piano}) != piano {
		t.Error("union with an empty list rebuilt its operand")
	}
	// Three operands merge in one pass into what two pairwise merges give,
	// ties included.
	concerto := p.join(titles, p.leaves("concerto", cost.Text))
	three := segmentsOf(p, p.union([]list{piano, sonata, concerto}))
	folded := segmentsOf(p, p.union([]list{p.union([]list{piano, sonata}), concerto}))
	if !slices.EqualFunc(three, folded, slices.Equal) {
		t.Errorf("k-way union %v, pairwise %v", three, folded)
	}
}

// TestLazyHeads: reading the first entry of a join computes no entry of a
// descendant segment whose lower bound exceeds it, and reading the first
// pair of an intersect reads one entry of each side.
func TestLazyHeads(t *testing.T) {
	p := opsPlanner(t)
	lib := p.fetch("lib", cost.Struct)
	// Deleting the leaf costs 1; every match pays the bump of 5, so the
	// cheapest entry of lib's segment is the deletion.
	terms := p.bump(p.leaves("concerto", cost.Text), 5)
	o := p.outerjoin(lib, terms, 1)
	s := p.at(o)[0]
	c := p.next(s, -1)
	if c < 0 || p.costAt(c) != 1 || p.nodes[p.cells[c].node].nkids != 0 {
		t.Fatalf("first entry of the outerjoin is not the deletion")
	}
	for _, d := range p.at(terms) {
		if p.segs[d].first >= 0 {
			t.Errorf("descendant segment of class %d computed for an entry it cannot win", p.segs[d].class)
		}
	}

	titles := p.fetch("title", cost.Struct)
	x := p.intersect(p.join(titles, p.bump(p.leaves("piano", cost.Text), 1)),
		p.join(titles, p.bump(p.leaves("concerto", cost.Text), 1)))
	xs := p.at(x)[0]
	if c := p.next(xs, -1); c < 0 || p.costAt(c) != 2 {
		t.Fatalf("first pair missing or mispriced")
	}
	for _, side := range []int32{p.segs[xs].a, p.segs[xs].b} {
		if n := len(entriesOfComputed(p, side)); n != 1 {
			t.Errorf("intersect side computed %d entries for the first pair, want 1", n)
		}
	}
}

// entriesOfComputed returns the entries of segment s computed so far,
// without growing it.
func entriesOfComputed(p *planner, s int32) []int32 {
	var out []int32
	for c := p.after(s, -1); c >= 0; c = p.after(s, c) {
		out = append(out, p.cells[c].node)
	}
	return out
}

func TestSegmentsIteration(t *testing.T) {
	p := opsPlanner(t)
	l := p.leaves("title", cost.Struct)
	var classes []schema.NodeID
	for i, seg := range segmentsOf(p, l) {
		classes = append(classes, p.segs[p.at(l)[i]].class)
		if len(seg) != 1 {
			t.Errorf("fetch segment size = %d", len(seg))
		}
	}
	if len(classes) != 2 || classes[0] >= classes[1] {
		t.Errorf("segment classes = %v", classes)
	}
	// An empty list yields no segments.
	if segs := segmentsOf(p, list{}); len(segs) != 0 {
		t.Errorf("segments of the empty list = %v", segs)
	}
}

// TestSemijoinInto checks the secondary semijoin on nested ancestors: an
// ancestor is kept exactly when some descendant of it is in ld.
//
//	0 <root>
//	1   r
//	2     a
//	3       a
//	4         b
//	5       b
//	6     a
//	7       c
func TestSemijoinInto(t *testing.T) {
	tree, err := xmltree.ParseXML(`<r><a><a><b/></a><b/></a><a><c/></a></r>`)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Label(3) != "a" || tree.Label(4) != "b" || tree.Label(7) != "c" {
		t.Fatalf("fixture numbering changed:\n%s", tree.RenderString(0))
	}
	type ids = []xmltree.NodeID
	as := ids{2, 3, 6}
	ex := &Executor{tree: tree}
	for _, tc := range []struct {
		name   string
		la, ld ids
		want   ids
	}{
		{"empty ancestors", nil, ids{4}, nil},
		{"empty descendants", as, nil, nil},
		{"nested, deep match", as, ids{4}, ids{2, 3}},
		{"nested, outer match only", as, ids{5}, ids{2}},
		{"nested, both", as, ids{4, 5}, ids{2, 3}},
		{"sibling subtree", as, ids{7}, ids{6}},
		{"self is no descendant", ids{3}, ids{3}, nil},
		{"all", as, ids{4, 5, 7}, as},
	} {
		if got := ex.semijoinInto(nil, tc.la, tc.ld); !slices.Equal(got, tc.want) {
			t.Errorf("%s: semijoin = %v, want %v", tc.name, got, tc.want)
		}
		// In place, as semijoinChain runs every semijoin after the first.
		la := slices.Clone(tc.la)
		if got := ex.semijoinInto(la[:0], la, tc.ld); !slices.Equal(got, tc.want) {
			t.Errorf("%s: in-place semijoin = %v, want %v", tc.name, got, tc.want)
		}
	}
}
