package eval

import (
	"math/bits"
	"sync"
	"unsafe"

	"approxql/internal/cost"
)

// Arena chunks grow geometrically from arenaChunkMin to arenaChunkMax
// entries (24 bytes each): an evaluator of small lists stays at a few KiB,
// while one evaluating large lists quickly reaches chunks big enough that a
// query costs a handful of chunk allocations.
const (
	arenaChunkMin = 1024
	arenaChunkMax = 16384
)

// entryArena is a bump allocator for retained list entries. Memoized lists
// (merged label variants, inner lists, eval results) are built directly
// into arena chunks, so the number of heap allocations per query is
// proportional to the number of chunks, not the number of list operations.
// The arena is append-only: chunks are never recycled while the evaluator
// lives, which is what keeps memoized lists valid across queries on a
// reused evaluator.
// Each evaluator owns its arena, so no locking is needed.
type entryArena struct {
	cur     []Entry   // current chunk; len = entries handed out
	reserve int       // capacity reserved by the pending alloc
	old     [][]Entry // retired chunks, kept for release
	lists   []List    // list-header slab; see commitList
	chunks  int
	entries int
	// Chunk-pool hit/miss counts, reported by Evaluator.Stats.
	poolHits   int
	poolMisses int
}

// alloc reserves capacity for up to n entries and returns an empty slice to
// append them into. The caller must finish with commit before the next alloc;
// between the two, the reserved region belongs exclusively to the returned
// slice.
func (a *entryArena) alloc(n int) []Entry {
	if cap(a.cur)-len(a.cur) < n {
		size := min(arenaChunkMin<<a.chunks, arenaChunkMax)
		if n > size {
			// A list longer than a chunk (the merged label variants
			// of a renamed node, say) starts a chunk sized to a
			// power of two, so that recycled ones fit the similar
			// lists of later queries.
			size = 1 << bits.Len(uint(n-1))
		}
		if a.cur != nil {
			a.old = append(a.old, a.cur)
		}
		if b, ok := getChunk(size); ok {
			a.cur = b
			a.poolHits++
		} else {
			a.cur = make([]Entry, 0, size)
			a.poolMisses++
		}
		a.chunks++
	}
	a.reserve = n
	used := len(a.cur)
	return a.cur[used : used : used+n]
}

// release returns every chunk to the process-wide pool and resets the arena.
// Any entries or List headers handed out earlier become invalid: the chunks
// will be overwritten by whichever arena adopts them next.
func (a *entryArena) release() {
	if a.cur != nil {
		a.old = append(a.old, a.cur)
	}
	putChunks(a.old)
	*a = entryArena{}
}

// commit finalizes the slice returned by the last alloc, reclaiming the
// reserved capacity beyond len(s) for the next alloc. A slice that outgrew
// its reservation (an operation exceeded its upper bound) has escaped to the
// heap; the whole reservation is reclaimed then.
func (a *entryArena) commit(s []Entry) []Entry {
	if len(s) <= a.reserve {
		a.cur = a.cur[:len(a.cur)+len(s)]
	}
	a.entries += len(s)
	a.reserve = 0
	return s
}

// commitList is commit returning an immutable List whose positions missing
// from s cost dflt (see List). The List headers are carved from a slab in
// chunks of 64: one memoized list per header would otherwise be the single
// largest allocation count of a query. A full chunk is retired by starting
// a fresh one — never by growing in place — so pointers into retired chunks
// stay valid for the life of the arena.
func (a *entryArena) commitList(s []Entry, dflt cost.Cost) *List {
	if len(a.lists) == cap(a.lists) {
		a.lists = make([]List, 0, 64)
	}
	a.lists = append(a.lists, List{entries: a.commit(s), dflt: dflt})
	return &a.lists[len(a.lists)-1]
}

// opScratch holds the reusable buffers of the list operations: the variant
// heap of the label merge and the join working state. Scratch is acquired
// from a process-wide pool per evaluation and released afterwards, so
// concurrent evaluators reuse each other's buffers between queries but
// never share them during one.
type opScratch struct {
	variants []variant
	join     joinScratch
}

// joinScratch is the working state of the one-pass join/outerjoin algorithm.
type joinScratch struct {
	tmp     []Entry // pending ancestor copies, indexed like lA
	matched []bool  // whether tmp[i] gained a descendant
	open    []int   // indexes into tmp of currently open ancestors
}

// grow sizes the join scratch for an ancestor list of length n and clears
// the matched flags.
func (sc *joinScratch) grow(n int) {
	if cap(sc.tmp) < n {
		sc.tmp = make([]Entry, n)
		sc.matched = make([]bool, n)
	}
	sc.tmp = sc.tmp[:n]
	sc.matched = sc.matched[:n]
	clear(sc.matched)
	sc.open = sc.open[:0]
}

// chunkPool recycles arena chunks between evaluators that opt in via
// (*Evaluator).Release. It is a mutex-guarded stack rather than a sync.Pool:
// puts happen once per released evaluator, and a Pool of slice values would
// allocate an interface header per Put. Entries hold no pointers, so pooled
// chunks need no zeroing and are invisible to the garbage collector's scan —
// recycling them removes both the allocation and the clear of several
// megabytes per query.
var chunkPool struct {
	mu    sync.Mutex
	bufs  [][]Entry
	bytes int // summed capacity of bufs, in bytes
}

// chunkPoolBytes bounds the memory the pool retains. It is a byte budget,
// not a chunk count, so that it stays 32 MiB whatever the entry size. It
// holds the arenas of two concurrent all-results queries with 10 renamings
// per label at scale 0.1; at 20 MiB their long-list chunks no longer fit
// and each such query allocated about 0.5 MiB of fresh chunks.
const chunkPoolBytes = 32 << 20

// chunkBytes is the memory held by chunk b.
func chunkBytes(b []Entry) int { return cap(b) * int(unsafe.Sizeof(Entry{})) }

// getChunk returns the smallest pooled chunk with capacity ≥ n, if one
// exists: taking the best fit leaves the large chunks for the large lists.
func getChunk(n int) ([]Entry, bool) {
	chunkPool.mu.Lock()
	defer chunkPool.mu.Unlock()
	best := -1
	for i, b := range chunkPool.bufs {
		if cap(b) >= n && (best < 0 || cap(b) < cap(chunkPool.bufs[best])) {
			best = i
		}
	}
	if best < 0 {
		return nil, false
	}
	b := chunkPool.bufs[best]
	last := len(chunkPool.bufs) - 1
	chunkPool.bufs[best] = chunkPool.bufs[last]
	chunkPool.bufs[last] = nil
	chunkPool.bufs = chunkPool.bufs[:last]
	chunkPool.bytes -= chunkBytes(b)
	return b[:0], true
}

// putChunks shelves chunks for reuse, dropping each one that would take the
// pool past chunkPoolBytes.
func putChunks(bufs [][]Entry) {
	chunkPool.mu.Lock()
	defer chunkPool.mu.Unlock()
	for _, b := range bufs {
		if chunkPool.bytes+chunkBytes(b) > chunkPoolBytes {
			continue
		}
		chunkPool.bufs = append(chunkPool.bufs, b[:0])
		chunkPool.bytes += chunkBytes(b)
	}
}

var scratchPool sync.Pool // of *opScratch

// acquireScratch takes a scratch set from the pool, reporting whether it was
// a pool hit (reused buffers) or a fresh allocation.
func acquireScratch() (*opScratch, bool) {
	if sc, ok := scratchPool.Get().(*opScratch); ok {
		return sc, true
	}
	return &opScratch{}, false
}

func releaseScratch(sc *opScratch) {
	clear(sc.variants[:cap(sc.variants)]) // a pooled set must not pin postings
	scratchPool.Put(sc)
}
