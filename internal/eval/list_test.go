package eval

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"approxql/internal/cost"
	"approxql/internal/index"
	"approxql/internal/lang"
	"approxql/internal/xmltree"
)

// buildTree parses doc into a data tree. Struct labels listed in ins get that
// insert cost, all others the default of 1.
func buildTree(tb testing.TB, doc string, ins map[string]cost.Cost) *xmltree.Tree {
	tb.Helper()
	m := cost.NewModel()
	for label, c := range ins {
		m.SetInsert(label, cost.Struct, c)
	}
	b := xmltree.NewBuilder(m)
	if err := b.AddDocument(strings.NewReader(doc)); err != nil {
		tb.Fatal(err)
	}
	tr, err := b.Finish()
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

// flatTree returns a tree whose nodes 2..n+1 are leaves under one element:
// a backdrop for the operations that never look past Pre.
func flatTree(tb testing.TB, n int) *xmltree.Tree {
	return buildTree(tb, "<r>"+strings.Repeat("<n/>", n)+"</r>", nil)
}

// mkList builds a list of nodes of tr from (pre, emb, leaf) rows; the bound
// comes from the tree, and cost.Inf is abbreviated by -1 in the leaf column.
func mkList(tr *xmltree.Tree, rows ...[3]int64) *List {
	l := &List{}
	for _, r := range rows {
		leaf := cost.Cost(r[2])
		if r[2] < 0 {
			leaf = cost.Inf
		}
		pre := xmltree.NodeID(r[0])
		l.entries = append(l.entries, Entry{
			Pre:      pre,
			Bound:    tr.Bound(pre),
			EmbCost:  cost.Cost(r[1]),
			LeafCost: leaf,
		})
	}
	return l
}

func costsOf(l *List) [][2]int64 {
	out := make([][2]int64, l.Len())
	for i, e := range l.entries {
		leaf := int64(e.LeafCost)
		if cost.IsInf(e.LeafCost) {
			leaf = -1
		}
		out[i] = [2]int64{int64(e.EmbCost), leaf}
	}
	return out
}

func presOf(l *List) []xmltree.NodeID {
	out := make([]xmltree.NodeID, l.Len())
	for i, e := range l.entries {
		out[i] = e.Pre
	}
	return out
}

func TestBump(t *testing.T) {
	tr := flatTree(t, 8)
	l := mkList(tr, [3]int64{1, 2, 2}, [3]int64{5, 0, -1})
	b := bump(l, 3)
	want := [][2]int64{{5, 5}, {3, -1}}
	if !reflect.DeepEqual(costsOf(b), want) {
		t.Errorf("bump costs = %v, want %v", costsOf(b), want)
	}
	// Zero bump returns the identical list.
	if bump(l, 0) != l {
		t.Error("bump(l, 0) copied the list")
	}
	// The input list is never modified.
	if l.entries[0].EmbCost != 2 {
		t.Error("bump mutated its input")
	}
}

func TestMergeDisjoint(t *testing.T) {
	tr := flatTree(t, 8)
	lL := mkList(tr, [3]int64{1, 0, 0}, [3]int64{5, 0, 0})
	lR := mkList(tr, [3]int64{3, 0, 0})
	m := merge(lL, lR, 4)
	if !reflect.DeepEqual(presOf(m), []xmltree.NodeID{1, 3, 5}) {
		t.Fatalf("merge order = %v", presOf(m))
	}
	want := [][2]int64{{0, 0}, {4, 4}, {0, 0}}
	if !reflect.DeepEqual(costsOf(m), want) {
		t.Errorf("merge costs = %v, want %v", costsOf(m), want)
	}
}

func TestMergeCollisionKeepsCheaper(t *testing.T) {
	tr := flatTree(t, 8)
	lL := mkList(tr, [3]int64{2, 5, 5})
	lR := mkList(tr, [3]int64{2, 2, 2})
	if got := costsOf(merge(lL, lR, 1)); !reflect.DeepEqual(got, [][2]int64{{3, 3}}) {
		t.Errorf("collision costs = %v, want [[3 3]]", got)
	}
	if got := costsOf(merge(lL, lR, 9)); !reflect.DeepEqual(got, [][2]int64{{5, 5}}) {
		t.Errorf("collision costs = %v, want [[5 5]]", got)
	}
}

func TestJoinBasics(t *testing.T) {
	// Pre: a 1, p 2, d 3, d 4. Inserting p costs 3, so the distance from
	// a is 3 to node 3 (inside p) and 0 to node 4 (a's child).
	tr := buildTree(t, `<a><p><d/></p><d/></a>`, map[string]cost.Cost{"p": 3})
	lA := mkList(tr, [3]int64{1, 0, -1})
	lD := mkList(tr, [3]int64{3, 2, 2}, [3]int64{4, 9, -1})
	j := join(tr, lA, lD, 5)
	if j.Len() != 1 {
		t.Fatalf("join = %v", costsOf(j))
	}
	// Node 3: 3+2 = 5; node 4: 0+9 = 9. min = 5, plus edge 5 → 10. Leaf:
	// only node 3 has a leaf: 3+2+5 = 10.
	if j.entries[0].EmbCost != 10 || j.entries[0].LeafCost != 10 {
		t.Errorf("join costs = %v", costsOf(j))
	}
}

func TestJoinDropsAncestorsWithoutDescendants(t *testing.T) {
	// Pre: r 1, a 2, x 3, a 4, x 5, d 6.
	tr := buildTree(t, `<r><a><x/></a><a><x/><d/></a></r>`, nil)
	lA := mkList(tr, [3]int64{2, 0, -1}, [3]int64{4, 0, -1})
	lD := mkList(tr, [3]int64{6, 0, 0})
	j := join(tr, lA, lD, 0)
	if !reflect.DeepEqual(presOf(j), []xmltree.NodeID{4}) {
		t.Errorf("join kept %v, want [4]", presOf(j))
	}
}

func TestJoinNestedAncestors(t *testing.T) {
	// Pre: a 1, a 2, p 3, d 4, q 5, d 6. The inner a [2..4] holds node 4;
	// node 6 lies under the outer a only.
	tr := buildTree(t, `<a><a><p><d/></p></a><q><d/></q></a>`, map[string]cost.Cost{"p": 2, "q": 3})
	lA := mkList(tr, [3]int64{1, 0, -1}, [3]int64{2, 0, -1})
	lD := mkList(tr, [3]int64{4, 1, 1}, [3]int64{6, 0, -1})
	j := join(tr, lA, lD, 0)
	if !reflect.DeepEqual(presOf(j), []xmltree.NodeID{1, 2}) {
		t.Fatalf("join pres = %v", presOf(j))
	}
	// Outer a: dist to 4 = a+p = 3 → 4; dist to 6 = q = 3 → 3. Emb 3, but
	// the leaf comes from node 4 only: 4.
	// Inner a: dist to 4 = p = 2 → 3 (node 6 is outside its subtree).
	want := [][2]int64{{3, 4}, {3, 3}}
	if !reflect.DeepEqual(costsOf(j), want) {
		t.Errorf("join costs = %v, want %v", costsOf(j), want)
	}
}

func TestJoinSiblingAncestorsDoNotLeak(t *testing.T) {
	// Two sibling ancestors; each descendant belongs to exactly one.
	// Pre: r 1, a 2, p 3, d 4, a 5, d 6.
	tr := buildTree(t, `<r><a><p><d/></p></a><a><d/></a></r>`, map[string]cost.Cost{"p": 2})
	lA := mkList(tr, [3]int64{2, 0, -1}, [3]int64{5, 0, -1})
	lD := mkList(tr, [3]int64{4, 3, 3}, [3]int64{6, 0, 0})
	j := join(tr, lA, lD, 0)
	if j.Len() != 2 {
		t.Fatalf("join = %v", presOf(j))
	}
	// a 2 → node 4: dist 2 → 5; a 5 → node 6: dist 0 → 0.
	if j.entries[0].EmbCost != 5 || j.entries[1].EmbCost != 0 {
		t.Errorf("join costs = %v", costsOf(j))
	}
}

// TestJoinDistancesVaryPerPair pins join and outerjoin on nested ancestors
// at depths 1, 2 and 3 with non-uniform insert costs, so that every
// ancestor-descendant pair has its own distance.
func TestJoinDistancesVaryPerPair(t *testing.T) {
	// Pre: a 1, b 2, a 3, c 4, d 5, d 6, c 7, d 8. Insert costs: a 1, b 4,
	// c 2. Distances (insert costs strictly between):
	//   a1→d5 = b+a+c = 7   a1→d6 = b+a = 5   a1→d8 = c = 2
	//   b2→d5 = a+c = 3     b2→d6 = a = 1
	//   a3→d5 = c = 2       a3→d6 = 0
	tr := buildTree(t, `<a><b><a><c><d/></c><d/></a></b><c><d/></c></a>`,
		map[string]cost.Cost{"a": 1, "b": 4, "c": 2})
	lA := mkList(tr, [3]int64{1, 0, -1}, [3]int64{2, 0, -1}, [3]int64{3, 0, -1})
	lD := mkList(tr, [3]int64{5, 0, 0}, [3]int64{6, 1, -1}, [3]int64{8, 4, -1})
	// a1: emb min(7+0, 5+1, 2+4) = 6, leaf 7 (node 5 only).
	// b2: emb min(3+0, 1+1) = 2, leaf 3.
	// a3: emb min(2+0, 0+1) = 1, leaf 2.
	if got, want := costsOf(join(tr, lA, lD, 1)), [][2]int64{{7, 8}, {3, 4}, {2, 3}}; !reflect.DeepEqual(got, want) {
		t.Errorf("join costs = %v, want %v", got, want)
	}
	// Deleting costs 3: it undercuts a1's match but not the others'.
	if got, want := costsOf(outerjoin(tr, lA, lD, 0, 3)), [][2]int64{{3, 7}, {2, 3}, {1, 2}}; !reflect.DeepEqual(got, want) {
		t.Errorf("outerjoin costs = %v, want %v", got, want)
	}
}

func TestOuterjoin(t *testing.T) {
	// Pre: r 1, a 2, p 3, d 4, a 5, x 6.
	tr := buildTree(t, `<r><a><p><d/></p></a><a><x/></a></r>`, nil)
	lA := mkList(tr, [3]int64{2, 0, -1}, [3]int64{5, 0, -1})
	lD := mkList(tr, [3]int64{4, 0, 0})
	// delete cost 4, edge 1: matched ancestor (dist 1) gets min(4, 1+0)+1
	// = 2 with leaf 1+0+1 = 2; unmatched gets 4+1 = 5 with leaf Inf.
	o := outerjoin(tr, lA, lD, 1, 4)
	want := [][2]int64{{2, 2}, {5, -1}}
	if !reflect.DeepEqual(costsOf(o), want) {
		t.Errorf("outerjoin costs = %v, want %v", costsOf(o), want)
	}
	// Deletion can undercut an expensive match.
	lD2 := mkList(tr, [3]int64{4, 7, 7})
	o2 := outerjoin(tr, lA, lD2, 0, 4)
	// match = 1+7 = 8; min(4, 8) = 4; leaf stays at the match: 8.
	if o2.entries[0].EmbCost != 4 || o2.entries[0].LeafCost != 8 {
		t.Errorf("outerjoin costs = %v", costsOf(o2))
	}
}

func TestOuterjoinInfiniteDeleteDropsUnmatched(t *testing.T) {
	// Pre: r 1, a 2, x 3, a 4, x 5, d 6.
	tr := buildTree(t, `<r><a><x/></a><a><x/><d/></a></r>`, nil)
	lA := mkList(tr, [3]int64{2, 0, -1}, [3]int64{4, 0, -1})
	lD := mkList(tr, [3]int64{6, 0, 0})
	o := outerjoin(tr, lA, lD, 0, cost.Inf)
	if !reflect.DeepEqual(presOf(o), []xmltree.NodeID{4}) {
		t.Errorf("outerjoin kept %v, want [4]", presOf(o))
	}
}

// runTree builds a random tree whose d leaves form runs outside every a:
// before the first, between sibling a subtrees, and after the last. Inside
// each a, labels nest at random. Insert costs are random per label.
func runTree(rng *rand.Rand) *xmltree.Tree {
	m := cost.NewModel()
	for _, l := range []string{"r", "a", "d", "x"} {
		m.SetInsert(l, cost.Struct, cost.Cost(rng.Intn(5)))
	}
	b := xmltree.NewBuilder(m)
	leaves := func(max int) {
		for k := rng.Intn(max); k > 0; k-- {
			b.BeginElement("d")
			b.End()
		}
	}
	var sub func(depth int)
	sub = func(depth int) {
		b.BeginElement([]string{"a", "d", "x"}[rng.Intn(3)])
		for k := rng.Intn(4); depth < 4 && k > 0; k-- {
			sub(depth + 1)
		}
		leaves(3)
		b.End()
	}
	b.BeginElement("r")
	leaves(40)
	for k := 1 + rng.Intn(4); k > 0; k-- {
		b.BeginElement("a")
		for c := rng.Intn(4); c > 0; c-- {
			sub(1)
		}
		b.End()
		leaves(40)
	}
	b.End()
	tr, err := b.Finish()
	if err != nil {
		panic(err)
	}
	return tr
}

// labelList lists the nodes of tr labeled label, keeping each with
// probability keep, with random costs (LeafCost ≥ EmbCost, or Inf).
func labelList(rng *rand.Rand, tr *xmltree.Tree, label string, keep float64) *List {
	l := &List{}
	for u := xmltree.NodeID(0); int(u) < tr.Len(); u++ {
		if tr.Label(u) != label || rng.Float64() >= keep {
			continue
		}
		e := Entry{Pre: u, Bound: tr.Bound(u), EmbCost: cost.Cost(rng.Intn(6)), LeafCost: cost.Inf}
		if rng.Intn(3) != 0 {
			e.LeafCost = e.EmbCost + cost.Cost(rng.Intn(4))
		}
		l.entries = append(l.entries, e)
	}
	return l
}

// naiveJoin is the O(|lA|·|lD|) definition of join (outer=false) and
// outerjoin (outer=true): every ancestor against every descendant, with the
// distance summed along the parent chain instead of read from pathcost.
func naiveJoin(tr *xmltree.Tree, lA, lD *List, cEdge, cDel cost.Cost, outer bool) *List {
	out := &List{}
	for _, a := range lA.entries {
		emb, leaf, matched := cost.Inf, cost.Inf, false
		for _, d := range lD.entries {
			if !tr.IsAncestor(a.Pre, d.Pre) {
				continue
			}
			var dist cost.Cost
			for v := tr.Parent(d.Pre); v != a.Pre; v = tr.Parent(v) {
				dist = cost.Add(dist, tr.InsCost(v))
			}
			emb = cost.Min(emb, cost.Add(dist, d.EmbCost))
			leaf = cost.Min(leaf, cost.Add(dist, d.LeafCost))
			matched = true
		}
		e := a
		switch {
		case matched && outer:
			e.EmbCost = cost.Add(cost.Min(cDel, emb), cEdge)
			e.LeafCost = cost.Add(leaf, cEdge)
		case matched:
			e.EmbCost, e.LeafCost = cost.Add(emb, cEdge), cost.Add(leaf, cEdge)
		case outer:
			e.EmbCost, e.LeafCost = cost.Add(cDel, cEdge), cost.Inf
		default:
			continue
		}
		if !cost.IsInf(e.EmbCost) {
			out.entries = append(out.entries, e)
		}
	}
	return out
}

// checkJoin compares join and outerjoin of lA with lD against the nested
// loop; name prefixes a failure.
func checkJoin(t *testing.T, name string, tr *xmltree.Tree, lA, lD *List, cEdge, cDel cost.Cost) {
	t.Helper()
	check := func(op string, got, want *List) {
		t.Helper()
		if !reflect.DeepEqual(presOf(got), presOf(want)) || !reflect.DeepEqual(costsOf(got), costsOf(want)) {
			t.Fatalf("%s%s = %v %v, nested loop %v %v", name, op,
				presOf(got), costsOf(got), presOf(want), costsOf(want))
		}
	}
	check("join", join(tr, lA, lD, cEdge), naiveJoin(tr, lA, lD, cEdge, 0, false))
	check("outerjoin", outerjoin(tr, lA, lD, cEdge, cDel), naiveJoin(tr, lA, lD, cEdge, cDel, true))
}

// TestJoinMatchesNestedLoop checks join and outerjoin against the nested
// loop on trees whose descendant lists have long uncovered runs — the
// stretches the join gallops over — and, every other trial, on sparse
// descendant lists over the nested ancestors, where most ancestors hold no
// descendant and the join skips along the enclosing-entry chains.
func TestJoinMatchesNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 600; trial++ {
		tr := runTree(rng)
		lA := labelList(rng, tr, "a", 0.8)
		keep := 0.9
		if trial%2 == 1 {
			keep = 0.05 + 0.15*rng.Float64()
		}
		lD := labelList(rng, tr, "d", keep)
		cEdge, cDel := cost.Cost(rng.Intn(3)), cost.Cost(rng.Intn(8))
		if rng.Intn(4) == 0 {
			cDel = cost.Inf
		}
		checkJoin(t, fmt.Sprintf("trial %d: ", trial), tr, lA, lD, cEdge, cDel)
	}
}

// shapeTree builds a tree under an r root from shape: each byte opens an
// a, d or x element below the open one or closes it. Insert costs are
// random per label.
func shapeTree(rng *rand.Rand, shape []byte) *xmltree.Tree {
	m := cost.NewModel()
	for _, l := range []string{"r", "a", "d", "x"} {
		m.SetInsert(l, cost.Struct, cost.Cost(rng.Intn(5)))
	}
	b := xmltree.NewBuilder(m)
	b.BeginElement("r")
	depth := 0
	for _, c := range shape {
		switch c % 4 {
		case 0:
			if depth > 0 {
				b.End()
				depth--
			}
		default:
			b.BeginElement([]string{"a", "d", "x"}[c%4-1])
			depth++
		}
	}
	for ; depth >= 0; depth-- {
		b.End()
	}
	tr, err := b.Finish()
	if err != nil {
		panic(err)
	}
	return tr
}

// FuzzJoinMatchesNestedLoop runs join and outerjoin against the nested
// loop on fuzzer-chosen trees (see shapeTree) and thinnings: keepA and
// keepD, out of 255, are the shares of the a and d nodes the two lists
// keep, and the seed drives the insert costs, which nodes are kept, and
// the edge and deletion costs.
func FuzzJoinMatchesNestedLoop(f *testing.F) {
	f.Add(int64(1), uint8(200), uint8(40), []byte{1, 1, 3, 0, 1, 2, 0, 0, 0, 1, 1, 0, 2, 0, 0, 2})
	f.Add(int64(2), uint8(255), uint8(20), []byte{1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 2, 0, 2, 0, 2})
	f.Add(int64(3), uint8(128), uint8(255), []byte{3, 1, 2, 0, 0, 1, 1, 2, 2, 0, 3, 0, 0, 2})
	f.Add(int64(4), uint8(255), uint8(255), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, keepA, keepD uint8, shape []byte) {
		if len(shape) > 256 {
			shape = shape[:256] // the nested loop is cubic on deep trees
		}
		rng := rand.New(rand.NewSource(seed))
		tr := shapeTree(rng, shape)
		lA := labelList(rng, tr, "a", float64(keepA)/255)
		lD := labelList(rng, tr, "d", float64(keepD)/255)
		cEdge, cDel := cost.Cost(rng.Intn(3)), cost.Cost(rng.Intn(8))
		if rng.Intn(4) == 0 {
			cDel = cost.Inf
		}
		checkJoin(t, "", tr, lA, lD, cEdge, cDel)
	})
}

// nestedTree returns a chain of depth nested a elements whose first
// matched have a d as their last child, so that the d nodes follow every
// a in preorder: the ancestors matched+1..depth hold no descendant.
func nestedTree(tb testing.TB, depth, matched int) *xmltree.Tree {
	tb.Helper()
	b := xmltree.NewBuilder(cost.NewModel())
	for k := 0; k < depth; k++ {
		b.BeginElement("a")
	}
	for k := depth; k > 0; k-- {
		if k <= matched {
			b.BeginElement("d")
			b.End()
		}
		b.End()
	}
	tr, err := b.Finish()
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

// TestAppendEnclosing checks the enclosing-entry array against a scan of
// the earlier entries for the nearest one whose subtree holds the entry,
// on thinned runTree lists, a deep chain and the empty list.
func TestAppendEnclosing(t *testing.T) {
	check := func(name string, l []Entry) {
		t.Helper()
		up := appendEnclosing([]int32{7, 7}, l)[2:] // appends after what dst holds
		if len(up) != len(l) {
			t.Fatalf("%s: %d links for %d entries", name, len(up), len(l))
		}
		for i, e := range l {
			want := int32(-1)
			for q := i - 1; q >= 0; q-- {
				if l[q].Bound >= e.Pre {
					want = int32(q)
					break
				}
			}
			if up[i] != want {
				t.Fatalf("%s: up[%d] = %d, want %d", name, i, up[i], want)
			}
		}
	}
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		tr := runTree(rng)
		for _, label := range []string{"a", "d", "x"} {
			check(label, labelList(rng, tr, label, 0.2+0.8*rng.Float64()).entries)
		}
	}
	deep := nestedTree(t, 500, 7)
	check("deep a", labelList(rng, deep, "a", 1).entries)
	check("deep a thinned", labelList(rng, deep, "a", 0.5).entries)
	check("empty", nil)
}

// TestSkipAncestors checks skipAncestors against its definition, the
// first entry after i that ends at or after x, for every entry i of thinned
// runTree lists and every x past its subtree, and that the enclosing-entry
// walk lands on an entry other than p+1 and i+1 in some of those cases.
func TestSkipAncestors(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	walked := 0
	for trial := 0; trial < 200; trial++ {
		tr := runTree(rng)
		lA := labelList(rng, tr, "a", 0.6+0.4*rng.Float64()).entries
		up := appendEnclosing(nil, lA)
		for i, a := range lA {
			for x := a.Bound + 1; int(x) < tr.Len(); x++ {
				want := i + 1
				for want < len(lA) && lA[want].Bound < x {
					want++
				}
				got := skipAncestors(lA, up, i, x)
				if got != want {
					t.Fatalf("trial %d: skipAncestors(i=%d, x=%d) = %d, want %d", trial, i, x, got, want)
				}
				if p := after(lA, i+1, x-1) - 1; got != p+1 && got != i+1 {
					walked++
				}
			}
		}
	}
	if walked == 0 {
		t.Fatal("no case skipped to an entry that holds x past i+1")
	}
}

// TestJoinVisitsFollowMatches pins the ancestor skip through the
// evaluator's count: a[d] over 10 000 nested a elements of which the
// outermost 10 hold a d visits at most the matched ancestors, plus one per
// descendant and one more, where visiting every ancestor would take 10 000.
func TestJoinVisitsFollowMatches(t *testing.T) {
	const depth, matched = 10_000, 10
	tr := nestedTree(t, depth, matched)
	ev := New(tr, index.Build(tr))
	res, err := ev.BestN(lang.Expand(lang.MustParse(`a[d]`), cost.NewModel()), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != matched {
		t.Fatalf("%d results, want %d", len(res), matched)
	}
	if got, most := ev.Stats().AncestorsVisited, matched+matched+1; got > most {
		t.Errorf("joins visited %d ancestors, want at most %d", got, most)
	}
}

// TestAfter checks the gallop against a linear scan from every start
// position, for targets before, inside and past the list, and on an empty
// list.
func TestAfter(t *testing.T) {
	tr := flatTree(t, 40)
	var rows [][3]int64
	for pre := int64(2); pre <= 41; pre += 3 {
		rows = append(rows, [3]int64{pre, 0, 0})
	}
	l := mkList(tr, rows...).entries
	for j := 0; j <= len(l); j++ {
		for pre := xmltree.NodeID(0); pre <= 45; pre++ {
			want := j
			for want < len(l) && l[want].Pre <= pre {
				want++
			}
			if got := after(l, j, pre); got != want {
				t.Fatalf("after(j=%d, pre=%d) = %d, want %d", j, pre, got, want)
			}
		}
	}
	if got := after(nil, 0, 5); got != 0 {
		t.Fatalf("after(nil, 0, 5) = %d, want 0", got)
	}
}

func TestIntersect(t *testing.T) {
	tr := flatTree(t, 10)
	lL := mkList(tr, [3]int64{2, 1, 1}, [3]int64{4, 2, -1})
	lR := mkList(tr, [3]int64{2, 3, -1}, [3]int64{4, 1, 1}, [3]int64{9, 0, 0})
	x := intersect(lL, lR, 2)
	if !reflect.DeepEqual(presOf(x), []xmltree.NodeID{2, 4}) {
		t.Fatalf("intersect pres = %v", presOf(x))
	}
	// pre 2: emb 1+3+2 = 6; leaf min(1+3, 1+Inf)+2 = 6.
	// pre 4: emb 2+1+2 = 5; leaf min(Inf+1, 2+1)+2 = 5.
	want := [][2]int64{{6, 6}, {5, 5}}
	if !reflect.DeepEqual(costsOf(x), want) {
		t.Errorf("intersect costs = %v, want %v", costsOf(x), want)
	}
}

func TestIntersectLeafNeedsOneSide(t *testing.T) {
	tr := flatTree(t, 4)
	lL := mkList(tr, [3]int64{2, 1, -1})
	lR := mkList(tr, [3]int64{2, 1, -1})
	x := intersect(lL, lR, 0)
	if x.entries[0].LeafCost != cost.Inf {
		t.Errorf("leafless intersect produced LeafCost %d", x.entries[0].LeafCost)
	}
}

func TestUnion(t *testing.T) {
	tr := flatTree(t, 8)
	lL := mkList(tr, [3]int64{2, 1, 1}, [3]int64{4, 5, -1})
	lR := mkList(tr, [3]int64{4, 2, 2}, [3]int64{6, 3, 3})
	u := union(lL, lR, 1)
	if !reflect.DeepEqual(presOf(u), []xmltree.NodeID{2, 4, 6}) {
		t.Fatalf("union pres = %v", presOf(u))
	}
	want := [][2]int64{{2, 2}, {3, 3}, {4, 4}}
	if !reflect.DeepEqual(costsOf(u), want) {
		t.Errorf("union costs = %v, want %v", costsOf(u), want)
	}
}

func TestOpsCommutativity(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	tr := flatTree(t, 60)
	randList := func() *List {
		l := &List{}
		pre := int64(0)
		for i := 0; i < rng.Intn(10); i++ {
			pre += 1 + int64(rng.Intn(5))
			leaf := int64(rng.Intn(8))
			if rng.Intn(3) == 0 {
				leaf = -1
			}
			emb := int64(rng.Intn(6))
			if leaf >= 0 && leaf < emb {
				leaf = emb
			}
			l.entries = append(l.entries, mkList(tr, [3]int64{pre, emb, leaf}).entries[0])
		}
		return l
	}
	for trial := 0; trial < 100; trial++ {
		a, b := randList(), randList()
		c := cost.Cost(rng.Intn(4))
		if !reflect.DeepEqual(costsOf(intersect(a, b, c)), costsOf(intersect(b, a, c))) {
			t.Fatalf("trial %d: intersect not commutative", trial)
		}
		if !reflect.DeepEqual(costsOf(union(a, b, c)), costsOf(union(b, a, c))) {
			t.Fatalf("trial %d: union not commutative", trial)
		}
	}
}

func TestLeafCostNeverBelowEmbCost(t *testing.T) {
	// Invariant: LeafCost >= EmbCost for every op output (leaf-containing
	// embeddings are a subset of all embeddings).
	rng := rand.New(rand.NewSource(23))
	check := func(l *List, op string) {
		for _, e := range l.entries {
			if e.LeafCost < e.EmbCost {
				t.Fatalf("%s: LeafCost %d < EmbCost %d", op, e.LeafCost, e.EmbCost)
			}
		}
	}
	for trial := 0; trial < 200; trial++ {
		tr := randomTree(rng, randomModel(rng), 30)
		a := labelList(rng, tr, propNames[rng.Intn(len(propNames))], 0.7)
		b := labelList(rng, tr, propNames[rng.Intn(len(propNames))], 0.7)
		c := cost.Cost(rng.Intn(3))
		check(intersect(a, b, c), "intersect")
		check(union(a, b, c), "union")
		check(merge(a, b, c), "merge")
		check(bump(a, c), "bump")
		check(join(tr, a, b, c), "join")
		check(outerjoin(tr, a, b, c, cost.Cost(rng.Intn(6))), "outerjoin")
	}
}

// sparseOver picks entries of positions with probability keep, with random
// costs (LeafCost ≥ EmbCost, or Inf), and a random default: finite, or Inf
// (absent) one time in three.
func sparseOver(rng *rand.Rand, positions []Entry, keep float64) ([]Entry, cost.Cost) {
	var sp []Entry
	for _, p := range positions {
		if rng.Float64() >= keep {
			continue
		}
		e := Entry{Pre: p.Pre, Bound: p.Bound, EmbCost: cost.Cost(rng.Intn(6)), LeafCost: cost.Inf}
		if rng.Intn(3) != 0 {
			e.LeafCost = e.EmbCost + cost.Cost(rng.Intn(4))
		}
		sp = append(sp, e)
	}
	dflt := cost.Cost(rng.Intn(8))
	if rng.Intn(3) == 0 {
		dflt = cost.Inf
	}
	return sp, dflt
}

// chargedDense is the dense form of an inner list: every position of base
// that entries does not hold costs dflt plus its charge, base's EmbCost.
func chargedDense(l *List) *List {
	out := &List{dflt: cost.Inf}
	k := 0
	for _, p := range l.base {
		if k < len(l.entries) && l.entries[k].Pre == p.Pre {
			out.entries = append(out.entries, l.entries[k])
			k++
			continue
		}
		out.entries = append(out.entries, Entry{Pre: p.Pre, Bound: p.Bound, EmbCost: cost.Add(l.dflt, p.EmbCost), LeafCost: cost.Inf})
	}
	return out
}

// TestSparseOpsMatchDense checks every sparse core against its dense
// definition: inputs are random sparse lists over one ancestor list lA
// with finite and infinite defaults; the dense side writes each default out
// at every position it covers and runs the allocating wrappers (or the
// nested loop, for outerjoin). The sparse result, its default written out
// the same way, must equal the dense one.
func TestSparseOpsMatchDense(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 400; trial++ {
		tr := runTree(rng)
		lA := labelList(rng, tr, "a", 0.9)
		check := func(op string, got, want *List) {
			t.Helper()
			if !reflect.DeepEqual(presOf(got), presOf(want)) || !reflect.DeepEqual(costsOf(got), costsOf(want)) {
				t.Fatalf("trial %d: %s = %v %v, dense %v %v", trial, op,
					presOf(got), costsOf(got), presOf(want), costsOf(want))
			}
		}
		spL, dL := sparseOver(rng, lA.entries, 0.4)
		spR, dR := sparseOver(rng, lA.entries, 0.4)
		denseL, denseR := dense(fillDefault(lA.entries, spL, dL)), dense(fillDefault(lA.entries, spR, dR))
		c := cost.Cost(rng.Intn(4))

		x, dx := appendIntersect(nil, spL, spR, dL, dR, c)
		if n := intersectBound(len(spL), len(spR), dL, dR); len(x) > n {
			t.Fatalf("trial %d: intersect emitted %d entries, bound %d", trial, len(x), n)
		}
		check("intersect", dense(fillDefault(lA.entries, x, dx)), intersect(denseL, denseR, c))
		u, du := appendUnion(nil, spL, spR, dL, dR, c, c)
		check("union", dense(fillDefault(lA.entries, u, du)), union(denseL, denseR, c))
		// The or-branch form: a charge on the right side only.
		u, du = appendUnion(nil, spL, spR, dL, dR, 0, c)
		check("union(0, c)", dense(fillDefault(lA.entries, u, du)), merge(denseL, denseR, c))

		// Joins against a leaf list, and against an inner list whose base
		// carries renaming charges.
		lD := labelList(rng, tr, "d", 0.9)
		cDel := cost.Cost(rng.Intn(8))
		if rng.Intn(4) == 0 {
			cDel = cost.Inf
		}
		do := cost.Add(cDel, c)
		up := appendEnclosing(nil, lA.entries)
		o, _ := appendJoin(nil, tr, lA.entries, up, lD, c, cDel)
		check("outerjoin", dense(fillDefault(lA.entries, o, do)), naiveJoin(tr, lA, lD, c, cDel, true))

		base := labelList(rng, tr, "d", 0.9).entries
		for i := range base {
			base[i].EmbCost, base[i].LeafCost = cost.Cost(rng.Intn(3)), cost.Inf
		}
		sp, d := sparseOver(rng, base, 0.3)
		if cost.IsInf(d) {
			d = 1 // innerNode keeps a base only under a finite default
		}
		inner := &List{entries: sp, dflt: d, base: base}
		j, _ := appendJoin(nil, tr, lA.entries, up, inner, c, cost.Inf)
		check("join(inner)", dense(j), join(tr, lA, chargedDense(inner), c))
		o, _ = appendJoin(nil, tr, lA.entries, up, inner, c, cDel)
		check("outerjoin(inner)", dense(fillDefault(lA.entries, o, do)), naiveJoin(tr, lA, chargedDense(inner), c, cDel, true))
	}
}
