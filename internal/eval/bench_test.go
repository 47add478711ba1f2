package eval

import (
	"fmt"
	"math/rand"
	"testing"

	"approxql/internal/cost"
	"approxql/internal/index"
	"approxql/internal/lang"
	"approxql/internal/xmltree"
)

// benchLists builds a synthetic data tree for micro-benchmarking the list
// algebra and lists over it: lA holds the first nA "a" nodes, which come in
// groups of up to four nested under a shared parent, and lD the first nD
// "d" leaves, which fill the groups and the gaps between them.
func benchLists(nA, nD int) (*xmltree.Tree, *List, *List) {
	rng := rand.New(rand.NewSource(9))
	m := cost.NewModel()
	m.SetInsert("g", cost.Struct, 3)
	b := xmltree.NewBuilder(m)
	ds := 0
	leaves := func(n int) {
		for ; n > 0; n-- {
			label := "x"
			if rng.Intn(2) == 0 {
				label = "d"
				ds++
			}
			b.BeginElement(label)
			b.End()
		}
	}
	b.BeginElement("r")
	for as := 0; as < nA || ds < nD; {
		depth := 1 + rng.Intn(4)
		for d := 0; d < depth; d++ {
			b.BeginElement("a")
			leaves(rng.Intn(3))
		}
		b.BeginElement("g")
		leaves(8 + rng.Intn(16))
		b.End()
		for d := 0; d < depth; d++ {
			b.End()
		}
		leaves(2 + rng.Intn(8))
		as += depth
	}
	b.End()
	tree, err := b.Finish()
	if err != nil {
		panic(err)
	}
	lA := &List{entries: make([]Entry, 0, nA)}
	lD := &List{entries: make([]Entry, 0, nD)}
	for u := xmltree.NodeID(0); int(u) < tree.Len(); u++ {
		switch tree.Label(u) {
		case "a":
			if len(lA.entries) < nA {
				lA.entries = append(lA.entries, Entry{Pre: u, Bound: tree.Bound(u), EmbCost: 0, LeafCost: cost.Inf})
			}
		case "d":
			if i := len(lD.entries); i < nD {
				lD.entries = append(lD.entries, Entry{Pre: u, Bound: tree.Bound(u), EmbCost: cost.Cost(i % 4), LeafCost: cost.Cost(i % 4)})
			}
		}
	}
	return tree, lA, lD
}

// BenchmarkJoin times the join core, appendJoin. The ancestor list's
// enclosing-entry array and the output buffer are built outside the timed
// loop, as the evaluator keeps both in its pooled scratch; timing the join
// wrapper would time their allocation instead.
func BenchmarkJoin(b *testing.B) {
	for _, size := range []int{100, 10_000} {
		tree, lA, lD := benchLists(size, size*4)
		b.Run(fmt.Sprintf("n=%d", size), joinBench(tree, lA, lD, cost.Inf))
	}
	// Every 50th leaf: most ancestors have no descendant.
	tree, lA, lD := benchLists(10_000, 40_000)
	sparse := &List{dflt: cost.Inf}
	for i := 0; i < lD.Len(); i += 50 {
		sparse.entries = append(sparse.entries, lD.entries[i])
	}
	b.Run("n=10000/sparse", joinBench(tree, lA, sparse, cost.Inf))
}

// BenchmarkOuterjoin times the join core with a finite deletion cost.
func BenchmarkOuterjoin(b *testing.B) {
	tree, lA, lD := benchLists(10_000, 40_000)
	joinBench(tree, lA, lD, 5)(b)
}

// joinBench returns a benchmark of appendJoin of lA with lD at edge cost 1
// and deletion cost cDel.
func joinBench(tree *xmltree.Tree, lA, lD *List, cDel cost.Cost) func(*testing.B) {
	up := appendEnclosing(nil, lA.entries)
	dst := make([]Entry, 0, lA.Len())
	return func(b *testing.B) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dst, _ = appendJoin(dst[:0], tree, lA.entries, up, lD, 1, cDel)
		}
	}
}

func BenchmarkIntersect(b *testing.B) {
	_, lA, _ := benchLists(50_000, 1)
	lB := &List{entries: make([]Entry, 0, 25_000)}
	for i := 0; i < len(lA.entries); i += 2 {
		lB.entries = append(lB.entries, lA.entries[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		intersect(lA, lB, 1)
	}
}

func BenchmarkUnion(b *testing.B) {
	_, lA, _ := benchLists(25_000, 1)
	lB := lA // benchLists is deterministic: a second call returns equal lists
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		union(lA, lB, 1)
	}
}

func BenchmarkMerge(b *testing.B) {
	_, lA, _ := benchLists(25_000, 1)
	lB := lA // benchLists is deterministic: a second call returns equal lists
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		merge(lA, lB, 3)
	}
}

// benchVariantTree builds a benchLists-style tree whose nested groups are
// labelled at random among "a" and its ten variants v1..v10, over "d" and
// "x" leaves: every variant of a renamed "a" matches and they nest.
func benchVariantTree(groups int) *xmltree.Tree {
	rng := rand.New(rand.NewSource(9))
	b := xmltree.NewBuilder(cost.NewModel())
	leaves := func(n int) {
		for ; n > 0; n-- {
			b.BeginElement([]string{"d", "x"}[rng.Intn(2)])
			b.End()
		}
	}
	b.BeginElement("r")
	for g := 0; g < groups; g++ {
		depth := 1 + rng.Intn(4)
		for d := 0; d < depth; d++ {
			label := "a"
			if k := rng.Intn(11); k > 0 {
				label = fmt.Sprintf("v%d", k)
			}
			b.BeginElement(label)
			leaves(rng.Intn(3))
		}
		leaves(2 + rng.Intn(8))
		for d := 0; d < depth; d++ {
			b.End()
		}
		leaves(rng.Intn(4))
	}
	b.End()
	tree, err := b.Finish()
	if err != nil {
		panic(err)
	}
	return tree
}

// BenchmarkRenamedNode evaluates a[d and x] with 0, 5 and 10 renamings of
// "a": the merged label variants, the one content evaluation over them and
// the charge pass of a renamed node.
func BenchmarkRenamedNode(b *testing.B) {
	tree := benchVariantTree(4_000)
	ix := index.Build(tree)
	q := lang.MustParse(`a[d and x]`)
	for _, r := range []int{0, 5, 10} {
		m := cost.NewModel()
		for k := 1; k <= r; k++ {
			m.AddRenaming("a", fmt.Sprintf("v%d", k), cost.Struct, cost.Cost(k))
		}
		x := lang.Expand(q, m)
		b.Run(fmt.Sprintf("r=%d", r), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ev := New(tree, ix)
				if _, err := ev.BestN(x, 0); err != nil {
					b.Fatal(err)
				}
				ev.Release()
			}
		})
	}
}
