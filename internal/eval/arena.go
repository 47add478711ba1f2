package eval

import (
	"sync"
	"unsafe"
)

// Arena chunks grow geometrically from arenaChunkMin to arenaChunkMax
// entries (24 bytes each): short-lived contexts — forked subtree workers in
// particular — stay at a few KiB, while a context evaluating large lists
// quickly reaches chunks big enough that a query costs a handful of chunk
// allocations.
const (
	arenaChunkMin = 1024
	arenaChunkMax = 16384
)

// entryArena is a bump allocator for retained list entries. Memoized lists
// (fetch results, inner lists, eval results) are built directly into arena
// chunks, so the number of heap allocations per query is proportional to the
// number of chunks, not the number of list operations. The arena is
// append-only: chunks are never recycled while the evaluator lives, which is
// what keeps memoized lists valid across queries on a reused evaluator.
// Each evaluation context owns its own arena, so no locking is needed.
type entryArena struct {
	cur     []Entry   // current chunk; len = entries handed out
	reserve int       // capacity reserved by the pending alloc
	old     [][]Entry // retired chunks, kept for release
	lists   []List    // list-header slab; see commitList
	chunks  int
	entries int
	// Chunk-pool hit/miss counts, merged into Stats by putCtx.
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
			size = n
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

// commitList is commit returning an immutable List. The List headers are
// carved from a slab in chunks of 64: one memoized list per header would
// otherwise be the single largest allocation count of a query. A full chunk
// is retired by starting a fresh one — never by growing in place — so
// pointers into retired chunks stay valid for the life of the arena.
func (a *entryArena) commitList(s []Entry) *List {
	if len(a.lists) == cap(a.lists) {
		a.lists = make([]List, 0, 64)
	}
	a.lists = append(a.lists, List{entries: a.commit(s)})
	return &a.lists[len(a.lists)-1]
}

// opScratch holds the reusable buffers of the list operations: two ping-pong
// entry buffers for merge-chain intermediates and the join working state.
// Scratch is acquired from a process-wide pool per evaluation and released
// afterwards, so concurrent evaluators reuse each other's buffers between
// queries but never share them during one.
type opScratch struct {
	bufA, bufB []Entry
	// lists is a stack of pre-collected variant lists for the merge
	// chains; nested inner evaluations push and pop their own windows.
	lists []*List
	join  joinScratch
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
// not a chunk count, so that it stays 20 MiB whatever the entry size.
const chunkPoolBytes = 20 << 20

// chunkBytes is the memory held by chunk b.
func chunkBytes(b []Entry) int { return cap(b) * int(unsafe.Sizeof(Entry{})) }

// getChunk returns a pooled chunk with capacity ≥ n, if one exists.
func getChunk(n int) ([]Entry, bool) {
	chunkPool.mu.Lock()
	defer chunkPool.mu.Unlock()
	for i := len(chunkPool.bufs) - 1; i >= 0; i-- {
		if cap(chunkPool.bufs[i]) >= n {
			b := chunkPool.bufs[i]
			last := len(chunkPool.bufs) - 1
			chunkPool.bufs[i] = chunkPool.bufs[last]
			chunkPool.bufs[last] = nil
			chunkPool.bufs = chunkPool.bufs[:last]
			chunkPool.bytes -= chunkBytes(b)
			return b[:0], true
		}
	}
	return nil, false
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

// entryBufPool holds the large intermediate buffers of the parallel merge
// reduction; reusing them across rounds and queries avoids allocating and
// zeroing megabytes per union.
var entryBufPool sync.Pool // of []Entry

// getEntryBuf returns an empty buffer with capacity ≥ n, preferring a pooled
// one. A pooled buffer too small for n is dropped so the pool converges on
// buffers that fit the workload. The second result reports a pool hit.
func getEntryBuf(n int) ([]Entry, bool) {
	if b, ok := entryBufPool.Get().([]Entry); ok {
		if cap(b) >= n {
			return b[:0], true
		}
	}
	return make([]Entry, 0, n), false
}

func putEntryBuf(b []Entry) {
	//lint:ignore SA6002 one slice-header allocation per Put, amortized over megabyte buffers
	entryBufPool.Put(b[:0])
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
	scratchPool.Put(sc)
}
