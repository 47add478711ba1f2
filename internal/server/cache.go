package server

import (
	"container/list"
	"fmt"
	"sync"

	"approxql"
)

// resultCache is the normalized-query result LRU. Keys combine the
// canonical parse-tree fingerprint (approxql.Fingerprint) with n, the
// strategy and render, so syntactically different spellings of one query
// share an entry while different result counts, forced strategies or
// render settings do not. Values are complete rankings: a hit reproduces
// the cold path's response byte-for-byte (the ranking is deterministic, see
// exec's ordered fan-in).
//
// The cache belongs to one database: invalidate drops every entry when the
// database is swapped, by bumping a generation stamped into live entries —
// cheaper than waiting on in-flight readers, and stale entries can never
// be returned afterwards.
type resultCache struct {
	mu      sync.Mutex
	cap     int
	gen     uint64
	entries map[string]*list.Element
	order   *list.List // front = most recently used

	hits   int64
	misses int64
}

// cachedRanking is a cache value: the response rows plus the planner view
// that produced them, so a hit reproduces the cold path's planner fields
// too. The rows are resolved once, at miss time, on either target: a
// corpus presents its own hits, a gatherer's hits arrive presented by
// their owning nodes. Rendered subtrees are part of the rows, so render is
// part of the key.
type cachedRanking struct {
	results []QueryResult // never mutated after insertion
	// strategy is the forced strategy or the planner's starting pick;
	// planner is "auto" or "forced"; price is the direct algorithm's
	// price and switched the shards that fell back to it.
	strategy string
	planner  string
	price    int
	switched int
}

type cacheEntry struct {
	key     string
	gen     uint64
	ranking cachedRanking
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{
		cap:     capacity,
		entries: make(map[string]*list.Element),
		order:   list.New(),
	}
}

// cacheKey builds the lookup key for one evaluation.
func cacheKey(fingerprint string, n int, strategy approxql.Strategy, render bool) string {
	key := fmt.Sprintf("%s/%d/%s", fingerprint, n, strategy)
	if render {
		key += "/r"
	}
	return key
}

// get returns the cached ranking for key, if present.
func (c *resultCache) get(key string) (cachedRanking, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cap <= 0 {
		c.misses++
		return cachedRanking{}, false
	}
	el, ok := c.entries[key]
	if !ok || el.Value.(*cacheEntry).gen != c.gen {
		c.misses++
		return cachedRanking{}, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).ranking, true
}

// put stores a complete ranking. The caller must not modify the ranking's
// results afterwards.
func (c *resultCache) put(key string, rk cachedRanking) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cap <= 0 {
		return
	}
	if el, ok := c.entries[key]; ok {
		el.Value = &cacheEntry{key: key, gen: c.gen, ranking: rk}
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, gen: c.gen, ranking: rk})
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
	}
}

// invalidate drops every entry.
func (c *resultCache) invalidate() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen++
	c.entries = make(map[string]*list.Element)
	c.order.Init()
}

// stats reports cumulative hit/miss counters and the current entry count.
func (c *resultCache) stats() (hits, misses int64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.order.Len()
}
