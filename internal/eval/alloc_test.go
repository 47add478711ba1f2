package eval

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"approxql/internal/cost"
	"approxql/internal/index"
	"approxql/internal/lang"
	"approxql/internal/xmltree"
)

// catalogFixture builds the Section 6 catalog without a testing.T, for use
// from benchmarks as well as tests.
func catalogFixture() (*xmltree.Tree, *index.Memory, *cost.Model) {
	model := cost.PaperExample()
	b := xmltree.NewBuilder(model)
	if err := b.AddDocument(strings.NewReader(catalogXML)); err != nil {
		panic(err)
	}
	tree, err := b.Finish()
	if err != nil {
		panic(err)
	}
	return tree, index.Build(tree), model
}

// TestListOpAllocBudgets pins the per-operation discipline: every append
// variant of the list algebra runs allocation-free when the destination and
// scratch already have capacity. A regression here silently reintroduces
// per-call garbage across the whole direct evaluation.
func TestListOpAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	tree, lA, lD := benchLists(2_000, 8_000)
	lB := &List{entries: make([]Entry, 0, 1_000)}
	for i := 0; i < len(lA.entries); i += 2 {
		lB.entries = append(lB.entries, lA.entries[i])
	}
	dst := make([]Entry, 0, len(lA.entries)+len(lD.entries))
	postA, postB, postD := pres(lA.entries), pres(lB.entries), pres(lD.entries)
	vs := make([]variant, 0, 3)

	// An inner list over lA: lB's entries override the default 2.
	view := &List{entries: lB.entries, dflt: 2, base: lA.entries}
	up := appendEnclosing(nil, lA.entries)
	upDst := make([]int32, 0, len(lA.entries))

	ops := map[string]func(){
		"join":              func() { dst, _ = appendJoin(dst[:0], tree, lA.entries, up, lD, 1, cost.Inf) },
		"join/base":         func() { dst, _ = appendJoin(dst[:0], tree, lA.entries, up, view, 1, cost.Inf) },
		"outerjoin":         func() { dst, _ = appendJoin(dst[:0], tree, lA.entries, up, lD, 1, 5) },
		"appendEnclosing":   func() { upDst = appendEnclosing(upDst[:0], lA.entries) },
		"appendIntersect":   func() { dst, _ = appendIntersect(dst[:0], lA.entries, lB.entries, cost.Inf, cost.Inf, 1) },
		"appendIntersect/d": func() { dst, _ = appendIntersect(dst[:0], lA.entries, lB.entries, 3, 4, 1) },
		"appendUnion":       func() { dst, _ = appendUnion(dst[:0], lA.entries, lB.entries, cost.Inf, cost.Inf, 0, 1) },
		"appendUnion/d":     func() { dst, _ = appendUnion(dst[:0], lA.entries, lB.entries, 3, 4, 0, 1) },
		"appendVariants": func() {
			vs = append(vs[:0], variant{postA, 0}, variant{postD, 2}, variant{postB, 5})
			dst = appendVariants(dst[:0], tree, vs, true)
		},
		"addCharges": func() { addCharges(lB.entries, lA.entries) },
	}
	for name, op := range ops {
		op() // warm any lazy growth inside the op
		if allocs := testing.AllocsPerRun(20, op); allocs > 0 {
			t.Errorf("%s: %.1f allocs/run with preallocated buffers, want 0", name, allocs)
		}
	}
}

// pres returns the Pre numbers of l: the posting l was fetched from.
func pres(l []Entry) []xmltree.NodeID {
	out := make([]xmltree.NodeID, len(l))
	for i, e := range l {
		out[i] = e.Pre
	}
	return out
}

// TestEntryLayout pins the list entry at 24 bytes: pre, bound and the two
// costs. Every list operation copies or clears whole entries, so each byte
// added here is paid per entry by the whole algebra — and the arena, the
// chunk pool's byte budget and the memory figures in docs/PERFORMANCE.md
// all assume this size. Data that only some operations read (the join's
// pathcost and inscost) belongs in the tree, not in the entry.
func TestEntryLayout(t *testing.T) {
	if got := unsafe.Sizeof(Entry{}); got != 24 {
		t.Errorf("sizeof(Entry) = %d bytes, want 24", got)
	}
}

// TestChunkPoolByteBudget checks that putChunks retains chunks up to
// chunkPoolBytes and no further, and that getChunk gives the bytes back.
func TestChunkPoolByteBudget(t *testing.T) {
	chunkPool.mu.Lock()
	saved, savedBytes := chunkPool.bufs, chunkPool.bytes
	chunkPool.bufs, chunkPool.bytes = nil, 0
	chunkPool.mu.Unlock()
	t.Cleanup(func() {
		chunkPool.mu.Lock()
		chunkPool.bufs, chunkPool.bytes = saved, savedBytes
		chunkPool.mu.Unlock()
	})

	const entry = int(unsafe.Sizeof(Entry{}))
	per := arenaChunkMax * entry
	fit := chunkPoolBytes / per
	bufs := make([][]Entry, fit+2)
	for i := range bufs {
		bufs[i] = make([]Entry, 0, arenaChunkMax)
	}
	putChunks(bufs)
	if len(chunkPool.bufs) != fit || chunkPool.bytes != fit*per {
		t.Fatalf("pool kept %d chunks (%d bytes), want %d (%d bytes)",
			len(chunkPool.bufs), chunkPool.bytes, fit, fit*per)
	}
	// The room left takes a chunk that exactly fits, not one entry more.
	rest := (chunkPoolBytes - fit*per) / entry
	putChunks([][]Entry{make([]Entry, 0, rest+1), make([]Entry, 0, rest)})
	full := fit*per + rest*entry
	if len(chunkPool.bufs) != fit+1 || chunkPool.bytes != full {
		t.Fatalf("pool kept %d chunks (%d bytes), want %d (%d bytes)",
			len(chunkPool.bufs), chunkPool.bytes, fit+1, full)
	}
	if _, ok := getChunk(arenaChunkMax); !ok {
		t.Fatal("getChunk missed a pooled chunk")
	}
	if chunkPool.bytes != full-per {
		t.Errorf("pool bytes after get = %d, want %d", chunkPool.bytes, full-per)
	}
}

// TestEvalAllocBudget pins the end-to-end budget: after the first query has
// warmed the process-wide pools, a fresh evaluator answering the same query
// stays within a small constant number of allocations, independent of list
// sizes (the arena, scratch pool, and chunk pool absorb the data-dependent
// part).
func TestEvalAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	tree, ix, model := catalogFixture()
	x := lang.Expand(lang.MustParse(`cd[title["concerto" and "piano"] or composer]`), model)

	run := func() {
		ev := New(tree, ix)
		if _, err := ev.BestN(x, 0); err != nil {
			t.Fatal(err)
		}
		ev.Release()
	}
	run() // warm the chunk and scratch pools
	// Warm runs measure ~19 allocs on this fixture; the budget leaves a
	// little headroom for runtime variation but catches any per-entry or
	// per-list regression immediately.
	const budget = 32
	if allocs := testing.AllocsPerRun(10, run); allocs > budget {
		t.Errorf("full evaluation: %.1f allocs/run, budget %d", allocs, budget)
	}
}

func BenchmarkEvalWarm(b *testing.B) {
	tree, ix, model := catalogFixture()
	for _, q := range []string{
		`cd[title["concerto"]]`,
		`cd[title["concerto" and "piano"] or composer]`,
	} {
		x := lang.Expand(lang.MustParse(q), model)
		b.Run(fmt.Sprintf("q=%s", q), func(b *testing.B) {
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
