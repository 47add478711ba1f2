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
// the last relevant subtree bound cannot affect the result. Every answer is
// a zero-copy prefix of the complete posting: stored sources decode and
// cache the whole posting on a miss, because the same key comes back under
// other bounds in later second-level queries, and a cache of truncated
// views would answer a larger bound wrongly.
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

// secStructKey appends the I_sec key of struct class c to buf.
func secStructKey(buf []byte, c NodeID) []byte {
	buf = append(buf, secStructPrefix...)
	return binary.AppendUvarint(buf, uint64(c))
}

// secTermKey appends the I_sec key of the (text class c, term) posting to
// buf.
func secTermKey(buf []byte, c NodeID, term string) []byte {
	buf = append(buf, secTermPrefix...)
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
			posts = append(posts, posting{secStructKey(nil, NodeID(c)), inst})
		}
	}
	for key, inst := range s.termInstances {
		posts = append(posts, posting{secTermKey(nil, key.class, s.tree.Terms.String(key.term)), inst})
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
// safe for concurrent use: the engines of concurrent queries share one
// source. Attach a posting cache with SetCache (the stored backend shares
// one LRU between the primary postings and I_sec; the key namespaces are
// disjoint).
type StoredSec struct {
	st *index.Stored // reads the I_sec key namespace
}

// OpenStoredSec returns a stored secondary index, without a cache.
func OpenStoredSec(db *storage.DB) *StoredSec {
	return &StoredSec{st: index.OpenStored(db)}
}

// SetCache attaches a posting cache (nil disables caching).
func (ss *StoredSec) SetCache(c *index.LRU) { ss.st.SetCache(c) }

// fetchUpTo returns the prefix of key's posting with entries ≤ bound. It
// fetches the complete posting, so a bounded miss fills the cache for every
// later bound.
func (ss *StoredSec) fetchUpTo(key []byte, bound xmltree.NodeID) ([]xmltree.NodeID, error) {
	post, err := ss.st.Fetch(key)
	return prefixUpTo(post, bound), err
}

// SecInstances implements SecSource.
func (ss *StoredSec) SecInstances(c NodeID) ([]xmltree.NodeID, error) {
	var buf [index.KeyBufLen]byte
	return ss.st.Fetch(secStructKey(buf[:0], c))
}

// SecTermInstances implements SecSource.
func (ss *StoredSec) SecTermInstances(c NodeID, term string) ([]xmltree.NodeID, error) {
	var buf [index.KeyBufLen]byte
	return ss.st.Fetch(secTermKey(buf[:0], c, term))
}

// SecInstancesUpTo implements SecSourceUpTo.
func (ss *StoredSec) SecInstancesUpTo(c NodeID, bound xmltree.NodeID) ([]xmltree.NodeID, error) {
	var buf [index.KeyBufLen]byte
	return ss.fetchUpTo(secStructKey(buf[:0], c), bound)
}

// SecTermInstancesUpTo implements SecSourceUpTo.
func (ss *StoredSec) SecTermInstancesUpTo(c NodeID, term string, bound xmltree.NodeID) ([]xmltree.NodeID, error) {
	var buf [index.KeyBufLen]byte
	return ss.fetchUpTo(secTermKey(buf[:0], c, term), bound)
}

// SecInstanceCount implements SecCounter.
func (ss *StoredSec) SecInstanceCount(c NodeID) (int, error) {
	var buf [index.KeyBufLen]byte
	return ss.st.Count(secStructKey(buf[:0], c))
}

// SecTermInstanceCount implements SecCounter.
func (ss *StoredSec) SecTermInstanceCount(c NodeID, term string) (int, error) {
	var buf [index.KeyBufLen]byte
	return ss.st.Count(secTermKey(buf[:0], c, term))
}
