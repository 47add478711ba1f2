package schema

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"approxql/internal/index"
	"approxql/internal/storage"
	"approxql/internal/xmltree"
)

// SecSource provides the path-dependent postings of the secondary index
// I_sec (Section 7.3): the instances of a struct class, and the instances of
// a (text class, term) pair. The in-memory Schema implements it directly;
// StoredSec serves the same postings from the embedded B+tree store, the way
// the paper's system keeps I_sec in Berkeley DB.
type SecSource interface {
	SecInstances(c NodeID) ([]xmltree.NodeID, error)
	SecTermInstances(c NodeID, term string) ([]xmltree.NodeID, error)
}

// SecInstances implements SecSource over the in-memory postings.
func (s *Schema) SecInstances(c NodeID) ([]xmltree.NodeID, error) {
	return s.Instances(c), nil
}

// SecTermInstances implements SecSource over the in-memory postings.
func (s *Schema) SecTermInstances(c NodeID, term string) ([]xmltree.NodeID, error) {
	return s.TermInstances(c, term), nil
}

// SecSourceUpTo is the optional bounded extension of SecSource: only the
// posting entries with preorder ≤ bound. Second-level executors semijoin
// leaf postings against an already-fetched ancestor list, so entries past
// the last relevant subtree bound cannot affect the result; stored sources
// answer from the blocked posting codec's skip table without reading the
// bodies of out-of-range blocks. Bounded results are truncated views and
// must never be cached as full postings.
type SecSourceUpTo interface {
	SecInstancesUpTo(c NodeID, bound xmltree.NodeID) ([]xmltree.NodeID, error)
	SecTermInstancesUpTo(c NodeID, term string, bound xmltree.NodeID) ([]xmltree.NodeID, error)
}

// prefixUpTo returns the prefix of a sorted posting with entries ≤ bound,
// sharing the backing array.
func prefixUpTo(post []xmltree.NodeID, bound xmltree.NodeID) []xmltree.NodeID {
	i := sort.Search(len(post), func(i int) bool { return post[i] > bound })
	return post[:i]
}

// SecInstancesUpTo implements SecSourceUpTo as a zero-copy prefix of the
// in-memory posting.
func (s *Schema) SecInstancesUpTo(c NodeID, bound xmltree.NodeID) ([]xmltree.NodeID, error) {
	return prefixUpTo(s.Instances(c), bound), nil
}

// SecTermInstancesUpTo implements SecSourceUpTo as a zero-copy prefix of the
// in-memory posting.
func (s *Schema) SecTermInstancesUpTo(c NodeID, term string, bound xmltree.NodeID) ([]xmltree.NodeID, error) {
	return prefixUpTo(s.TermInstances(c, term), bound), nil
}

// SecCounter is the optional count-only extension of SecSource: posting
// sizes without the postings. Count-only evaluation paths (the Explain
// introspection) probe for it so that reporting result counts never decodes
// or retains full instance lists.
type SecCounter interface {
	SecInstanceCount(c NodeID) (int, error)
	SecTermInstanceCount(c NodeID, term string) (int, error)
}

// SecInstanceCount implements SecCounter over the in-memory postings.
func (s *Schema) SecInstanceCount(c NodeID) (int, error) {
	return len(s.Instances(c)), nil
}

// SecTermInstanceCount implements SecCounter over the in-memory postings.
func (s *Schema) SecTermInstanceCount(c NodeID, term string) (int, error) {
	return len(s.TermInstances(c, term)), nil
}

// I_sec keys: the paper constructs them as pre(u)#label(u); here the class
// preorder number is varint-encoded after a one-byte namespace tag, and the
// term follows for text classes.
const (
	secStructPrefix = "c\x00"
	secTermPrefix   = "w\x00"
)

func secStructKey(c NodeID) []byte {
	buf := make([]byte, len(secStructPrefix), len(secStructPrefix)+binary.MaxVarintLen32)
	copy(buf, secStructPrefix)
	return binary.AppendUvarint(buf, uint64(c))
}

func secTermKey(c NodeID, term string) []byte {
	buf := make([]byte, len(secTermPrefix), len(secTermPrefix)+binary.MaxVarintLen32+1+len(term))
	copy(buf, secTermPrefix)
	buf = binary.AppendUvarint(buf, uint64(c))
	buf = append(buf, 0)
	return append(buf, term...)
}

// SaveSec persists the complete secondary index into db, in key order.
func (s *Schema) SaveSec(db *storage.DB) error {
	type posting struct {
		key  []byte
		inst []xmltree.NodeID
	}
	posts := make([]posting, 0, len(s.instances)+len(s.termInstances))
	for c, inst := range s.instances {
		if len(inst) > 0 {
			posts = append(posts, posting{secStructKey(NodeID(c)), inst})
		}
	}
	for key, inst := range s.termInstances {
		posts = append(posts, posting{secTermKey(key.class, s.tree.Terms.String(key.term)), inst})
	}
	slices.SortFunc(posts, func(a, b posting) int { return bytes.Compare(a.key, b.key) })
	for _, p := range posts {
		if err := db.Put(p.key, index.EncodePosting(p.inst)); err != nil {
			return fmt.Errorf("schema: saving %q: %w", p.key, err)
		}
	}
	return nil
}

// StoredSec is a SecSource reading I_sec postings from a storage.DB. It is
// safe for concurrent use: the parallel execution engine fans second-level
// queries out over worker goroutines that share one source. Attach a
// posting cache with SetCache (the stored backend shares one LRU between
// the primary postings and I_sec; the key namespaces are disjoint).
type StoredSec struct {
	db    *storage.DB
	cache index.PostingCache // nil: every fetch reads and decodes from storage
}

// OpenStoredSec returns a stored secondary index, without a cache.
func OpenStoredSec(db *storage.DB) *StoredSec {
	return &StoredSec{db: db}
}

// SetCache attaches a posting cache (nil disables caching).
func (ss *StoredSec) SetCache(c index.PostingCache) { ss.cache = c }

func (ss *StoredSec) fetch(key []byte) ([]xmltree.NodeID, error) {
	k := string(key)
	if ss.cache != nil {
		if post, ok := ss.cache.Get(k); ok {
			return post, nil
		}
	}
	raw, ok, err := ss.db.Get(key)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, nil
	}
	post, err := index.DecodePosting(raw)
	if err != nil {
		return nil, fmt.Errorf("schema: posting %q: %w", k, err)
	}
	if ss.cache != nil {
		ss.cache.Put(k, post, len(raw))
	}
	return post, nil
}

// fetchUpTo reads only the posting entries ≤ bound. A fully cached posting
// answers with a zero-copy prefix; otherwise the bounded decode skips blocks
// past the bound, and the truncated result is deliberately not cached.
func (ss *StoredSec) fetchUpTo(key []byte, bound xmltree.NodeID) ([]xmltree.NodeID, error) {
	k := string(key)
	if ss.cache != nil {
		if post, ok := ss.cache.Get(k); ok {
			return prefixUpTo(post, bound), nil
		}
	}
	raw, ok, err := ss.db.Get(key)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, nil
	}
	post, err := index.DecodePostingUpTo(nil, raw, bound)
	if err != nil {
		return nil, fmt.Errorf("schema: posting %q: %w", k, err)
	}
	return post, nil
}

// SecInstances implements SecSource.
func (ss *StoredSec) SecInstances(c NodeID) ([]xmltree.NodeID, error) {
	return ss.fetch(secStructKey(c))
}

// SecTermInstances implements SecSource.
func (ss *StoredSec) SecTermInstances(c NodeID, term string) ([]xmltree.NodeID, error) {
	return ss.fetch(secTermKey(c, term))
}

// SecInstancesUpTo implements SecSourceUpTo.
func (ss *StoredSec) SecInstancesUpTo(c NodeID, bound xmltree.NodeID) ([]xmltree.NodeID, error) {
	return ss.fetchUpTo(secStructKey(c), bound)
}

// SecTermInstancesUpTo implements SecSourceUpTo.
func (ss *StoredSec) SecTermInstancesUpTo(c NodeID, term string, bound xmltree.NodeID) ([]xmltree.NodeID, error) {
	return ss.fetchUpTo(secTermKey(c, term), bound)
}

// secPostingHeaderLen bounds the encoded posting prefix that carries the
// entry count: an optional two-byte format marker plus one uvarint.
const secPostingHeaderLen = 12

// count reads a posting's size from its encoded header, without decoding —
// or caching — the entries. Cached postings short-circuit to their length;
// otherwise only the value header is read, so overflow-chained postings
// cost one descent instead of a page per chain hop.
func (ss *StoredSec) count(key []byte) (int, error) {
	k := string(key)
	if ss.cache != nil {
		if post, ok := ss.cache.Get(k); ok {
			return len(post), nil
		}
	}
	hdr, ok, err := ss.db.ValueHeader(key, secPostingHeaderLen)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, nil
	}
	n, err := index.PostingCount(hdr)
	if err != nil {
		return 0, fmt.Errorf("schema: posting %q: %w", k, err)
	}
	return n, nil
}

// SecInstanceCount implements SecCounter.
func (ss *StoredSec) SecInstanceCount(c NodeID) (int, error) {
	return ss.count(secStructKey(c))
}

// SecTermInstanceCount implements SecCounter.
func (ss *StoredSec) SecTermInstanceCount(c NodeID, term string) (int, error) {
	return ss.count(secTermKey(c, term))
}
