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
func opsPlanner(t *testing.T, k int) *planner {
	t.Helper()
	p := getPlanner(opsSchema(t), k, context.Background())
	t.Cleanup(func() { putPlanner(p) })
	return p
}

func classesOf(p *planner, l list) []schema.NodeID {
	out := make([]schema.NodeID, l.n)
	for i, x := range p.at(l) {
		out[i] = p.nodes[x].class
	}
	return out
}

// segmentsOf splits l into its class segments.
func segmentsOf(p *planner, l list) [][]int32 {
	var out [][]int32
	ix := p.at(l)
	for i := 0; i < len(ix); {
		j := p.segEnd(ix, i)
		out = append(out, ix[i:j])
		i = j
	}
	return out
}

// kidsOf returns the pointer run of node i.
func kidsOf(p *planner, i int32) []int32 {
	n := p.nodes[i]
	return p.kids[n.kids : n.kids+n.nkids]
}

func labelOf(p *planner, i int32) string { return p.fetches[p.nodes[i].fetch].label }

// fetched returns the list of fetch(label, kind).
func (p *planner) fetched(label string, kind cost.Kind) list {
	return p.fetches[p.fetch(label, kind)].list
}

func TestFetchSchemaClasses(t *testing.T) {
	p := opsPlanner(t, 4)
	cd := p.fetched("cd", cost.Struct)
	if cd.n != 1 {
		t.Fatalf("cd classes = %v", classesOf(p, cd))
	}
	title := p.fetched("title", cost.Struct)
	if title.n != 2 {
		t.Fatalf("title classes = %v", classesOf(p, title))
	}
	concerto := p.fetched("concerto", cost.Text)
	if concerto.n != 2 { // cd/title/#text and mc/title/#text
		t.Fatalf("concerto classes = %v", classesOf(p, concerto))
	}
	piano := p.fetched("piano", cost.Text)
	if piano.n != 1 {
		t.Fatalf("piano classes = %v", classesOf(p, piano))
	}
	// Fetch is cached: same fetch, same list.
	nodes := len(p.nodes)
	if p.fetched("cd", cost.Struct) != cd || len(p.nodes) != nodes || p.stats.Fetches != 4 {
		t.Error("fetch not cached")
	}
	if missing := p.fetched("zzz", cost.Text); missing.n != 0 {
		t.Error("missing label returned classes")
	}
}

func TestMergeSharedTextClass(t *testing.T) {
	p := opsPlanner(t, 4)
	// piano and concerto share the cd/title text class: the merged list
	// holds a two-entry segment there plus concerto's mc class.
	l := p.union([]list{p.markLeaf(p.fetched("concerto", cost.Text)),
		p.bump(p.markLeaf(p.fetched("piano", cost.Text)), 3)})
	if l.n != 3 {
		t.Fatalf("merged = %v", classesOf(p, l))
	}
	segs := segmentsOf(p, l)
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
	if len(segs) != 2 {
		t.Errorf("segments = %d, want 2", len(segs))
	}
}

func TestJoinBuildsPointers(t *testing.T) {
	p := opsPlanner(t, 4)
	titles := p.fetched("title", cost.Struct)
	terms := p.markLeaf(p.fetched("concerto", cost.Text))
	j := p.join(titles, terms)
	if j.n != 2 {
		t.Fatalf("join = %v", classesOf(p, j))
	}
	for _, i := range p.at(j) {
		e := p.nodes[i]
		kids := kidsOf(p, i)
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
	p := opsPlanner(t, 4)
	titles := p.fetched("title", cost.Struct)
	piano := p.markLeaf(p.fetched("piano", cost.Text))
	o := p.outerjoin(titles, piano, 6)
	// cd/title: match (cost 0) + deletion (cost 6); mc/title: deletion only.
	var sizes []int
	for _, seg := range segmentsOf(p, o) {
		sizes = append(sizes, len(seg))
	}
	if len(sizes) != 2 || sizes[0] != 2 || sizes[1] != 1 {
		t.Fatalf("segment sizes = %v", sizes)
	}
	for _, i := range p.at(o) {
		e, kids := p.nodes[i], kidsOf(p, i)
		if len(kids) == 0 && (e.hasLeaf || e.cost != 6) {
			t.Errorf("deletion entry = %+v", e)
		}
		if len(kids) == 1 && (!e.hasLeaf || e.cost != 0) {
			t.Errorf("match entry = %+v", e)
		}
	}
}

func TestIntersectUnionsPointers(t *testing.T) {
	p := opsPlanner(t, 4)
	titles := p.fetched("title", cost.Struct)
	piano := p.join(titles, p.markLeaf(p.fetched("piano", cost.Text)))
	concerto := p.join(titles, p.markLeaf(p.fetched("concerto", cost.Text)))
	x := p.intersect(piano, concerto)
	// Only the cd/title class contains both terms.
	if x.n != 1 {
		t.Fatalf("intersect = %v", classesOf(p, x))
	}
	kids := kidsOf(p, p.at(x)[0])
	if len(kids) != 2 {
		t.Fatalf("pointer set = %v", kids)
	}
	labels := []string{labelOf(p, kids[0]), labelOf(p, kids[1])}
	if joined := strings.Join(labels, ","); joined != "piano,concerto" {
		t.Errorf("pointer labels = %v, want the left side's first", labels)
	}
}

func TestUnionKeepsAlternatives(t *testing.T) {
	p := opsPlanner(t, 4)
	titles := p.fetched("title", cost.Struct)
	piano := p.join(titles, p.markLeaf(p.fetched("piano", cost.Text)))
	sonata := p.join(titles, p.markLeaf(p.fetched("sonata", cost.Text)))
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
	empty := p.fetched("zzz", cost.Text)
	if p.union([]list{piano, empty}) != piano || p.union([]list{empty, piano}) != piano {
		t.Error("union with an empty list rebuilt its operand")
	}
	// Three operands merge in one pass into what two pairwise merges give,
	// also where capping cuts a segment of equal costs.
	concerto := p.join(titles, p.markLeaf(p.fetched("concerto", cost.Text)))
	p.k = 1
	three := p.union([]list{piano, sonata, concerto})
	folded := p.union([]list{p.union([]list{piano, sonata}), concerto})
	if !slices.Equal(p.at(three), p.at(folded)) {
		t.Errorf("k-way union %v, pairwise %v", p.at(three), p.at(folded))
	}
}

// TestCapSegment pins the capping rule on entries offered in (cost,
// sequence) order: the k cheapest, then leaf-having entries until k of the
// kept ones have a leaf, and nothing from the first infinite cost on.
func TestCapSegment(t *testing.T) {
	type ent struct {
		cost cost.Cost
		leaf bool
	}
	run := func(k int, seg []ent) (kept []ent) {
		cp := capper{k: k}
		for _, e := range seg {
			keep, more := cp.take(e.cost, e.leaf)
			if keep {
				kept = append(kept, e)
			}
			if !more {
				break
			}
		}
		return kept
	}
	// 2 cheapest: 1, 2. 2 cheapest leaf-having: 3, 7 (3 not in the first
	// two, so appended; 9 exceeds the leaf quota).
	capped := run(2, []ent{{1, false}, {2, false}, {3, true}, {5, false}, {7, true}, {9, true}})
	if len(capped) != 4 {
		t.Fatalf("capped = %v", capped)
	}
	if capped[0].cost != 1 || capped[1].cost != 2 || capped[2].cost != 3 || capped[3].cost != 7 {
		t.Errorf("capped = %v", capped)
	}
	// Infinite-cost entries vanish.
	if capped := run(2, []ent{{1, true}, {cost.Inf, true}}); len(capped) != 1 {
		t.Errorf("infinite entry survived: %v", capped)
	}
	// A short segment is kept whole.
	if capped := run(3, []ent{{1, false}, {4, false}}); len(capped) != 2 {
		t.Errorf("short segment capped to %v", capped)
	}
}

func TestSegmentsIteration(t *testing.T) {
	p := opsPlanner(t, 4)
	l := p.fetched("title", cost.Struct)
	var classes []schema.NodeID
	for _, seg := range segmentsOf(p, l) {
		classes = append(classes, p.nodes[seg[0]].class)
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
