package index

import (
	"container/list"
	"sync"

	"approxql/internal/xmltree"
)

// CacheStats are the cumulative counters of a shared posting cache — the
// fetch-level instrumentation of a storage backend. Fetches counts every
// posting lookup that went through the cache (hits and misses); Hits the
// lookups served without touching storage; BytesDecoded the raw bytes
// decoded from storage on misses that found a posting. PageReads and
// PageEvictions are the page-level counters underneath: logical page
// accesses against the store (cache and mapping hits included) and pages
// evicted from the page cache. A bare LRU leaves them zero; the stored
// backend fills them from its storage files (evictions stay zero under
// mmap, where pages are served from the mapping without a page cache).
type CacheStats struct {
	Fetches       int64
	Hits          int64
	BytesDecoded  int64
	PageReads     int64
	PageEvictions int64
}

// LRU is a mutex-guarded, entry-bounded cache for decoded postings, shared
// by every stored reader of one backend (I_struct/I_text and I_sec key
// namespaces are disjoint, so one cache serves both). Recency eviction
// keeps hot labels resident, and one lock protects every reader the
// engines of concurrent queries share. It holds complete postings only.
//
// Keys are passed as bytes that callers build in stack buffers: a hit
// indexes the map by string(key) without allocating, so only a miss's Put
// materializes the key string. Readers hold the concrete type, not an
// interface, so that the compiler can keep those buffers on the stack.
type LRU struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*list.Element
	order   *list.List // front = most recently used
	stats   CacheStats
}

type lruEntry struct {
	key  string
	post []xmltree.NodeID
}

// NewLRU returns a cache bounded to n entries; n <= 0 disables caching
// (every Get misses, Put is a no-op — but fetches are still counted, so a
// cacheless backend still reports fetch statistics).
func NewLRU(n int) *LRU {
	return &LRU{
		cap:     n,
		entries: make(map[string]*list.Element),
		order:   list.New(),
	}
}

// Get returns the cached posting for key and counts the fetch.
func (c *LRU) Get(key []byte) ([]xmltree.NodeID, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Fetches++
	el, ok := c.entries[string(key)]
	if !ok {
		return nil, false
	}
	c.stats.Hits++
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).post, true
}

// Put caches the complete posting post under key; rawBytes is its encoded
// size, counted as decoded.
func (c *LRU) Put(key []byte, post []xmltree.NodeID, rawBytes int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.BytesDecoded += int64(rawBytes)
	if c.cap <= 0 {
		return
	}
	if el, ok := c.entries[string(key)]; ok {
		el.Value.(*lruEntry).post = post
		c.order.MoveToFront(el)
		return
	}
	k := string(key)
	c.entries[k] = c.order.PushFront(&lruEntry{key: k, post: post})
	for len(c.entries) > c.cap {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.entries, last.Value.(*lruEntry).key)
	}
}

// Stats returns the cumulative cache counters.
func (c *LRU) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Len returns the number of cached postings.
func (c *LRU) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// SetCapacity resizes the cache to n entries, evicting the least recently
// used surplus; n <= 0 empties the cache and disables it.
func (c *LRU) SetCapacity(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cap = n
	if n <= 0 {
		c.entries = make(map[string]*list.Element)
		c.order.Init()
		return
	}
	for len(c.entries) > n {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.entries, last.Value.(*lruEntry).key)
	}
}
