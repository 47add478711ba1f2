package eval

import (
	"fmt"
	"math/rand"
	"testing"

	"approxql/internal/cost"
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

func BenchmarkJoin(b *testing.B) {
	for _, size := range []int{100, 10_000} {
		tree, lA, lD := benchLists(size, size*4)
		b.Run(fmt.Sprintf("n=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				join(tree, lA, lD, 1)
			}
		})
	}
}

func BenchmarkOuterjoin(b *testing.B) {
	tree, lA, lD := benchLists(10_000, 40_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		outerjoin(tree, lA, lD, 1, 5)
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
