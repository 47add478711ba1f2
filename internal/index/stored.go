package index

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"

	"approxql/internal/dict"
	"approxql/internal/storage"
	"approxql/internal/xmltree"
)

// Key prefixes in the backing store. Labels follow the prefix verbatim;
// element names and terms never contain '\x00', so the prefixes cannot
// collide with each other.
const (
	structPrefix = "s\x00"
	textPrefix   = "t\x00"
)

// KeyBufLen sizes the stack buffers posting keys are built in before a
// Fetch or Count; a longer key spills to the heap, which costs an
// allocation but stays correct.
const KeyBufLen = 64

// Stored is an index whose postings live in a storage.DB, the role Berkeley
// DB plays in the paper's system. Postings are decoded on demand; attach an
// LRU with SetCache to reuse decoded postings across fetches. Stored is safe
// for concurrent use: the underlying store serializes page access and the
// LRU its own state.
type Stored struct {
	db    *storage.DB
	cache *LRU // nil: every fetch reads and decodes from storage
}

// Save persists all postings of a Memory index into db, in key order: the
// I_struct postings by element name, then the I_text postings by term.
func Save(ix *Memory, db *storage.DB) error {
	if err := savePostings(db, structPrefix, ix.tree.Names, ix.structPost); err != nil {
		return err
	}
	return savePostings(db, textPrefix, ix.tree.Terms, ix.textPost)
}

// savePostings puts the non-empty postings of one namespace under prefix
// plus their label, sorted by label.
func savePostings(db *storage.DB, prefix string, labels dict.Reader, posts [][]xmltree.NodeID) error {
	names := labels.Strings()
	ids := make([]int, 0, len(posts))
	for id, post := range posts {
		if len(post) > 0 {
			ids = append(ids, id)
		}
	}
	slices.SortFunc(ids, func(a, b int) int { return strings.Compare(names[a], names[b]) })
	for _, id := range ids {
		key := prefix + names[id]
		if err := db.Put([]byte(key), EncodePosting(posts[id])); err != nil {
			return fmt.Errorf("index: saving %q: %w", key, err)
		}
	}
	return nil
}

// OpenStored returns a Stored index reading from db, without a cache.
func OpenStored(db *storage.DB) *Stored {
	return &Stored{db: db}
}

// SetCache attaches a posting cache (nil disables caching). One cache may
// be shared with other readers whose key namespaces are disjoint.
func (s *Stored) SetCache(c *LRU) { s.cache = c }

// appendKey appends a posting key, prefix plus label, to buf.
func appendKey(buf []byte, prefix, label string) []byte {
	return append(append(buf, prefix...), label...)
}

// Fetch returns the complete posting stored under key, nil if there is
// none. A cache miss decodes the posting and puts it in the cache. Struct
// and Text fetch the I_struct/I_text namespaces; the secondary index reads
// its own namespace through Fetch.
func (s *Stored) Fetch(key []byte) ([]xmltree.NodeID, error) {
	if s.cache != nil {
		if post, ok := s.cache.Get(key); ok {
			return post, nil
		}
	}
	raw, ok, err := s.db.Get(key)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, nil
	}
	post, err := DecodePosting(raw)
	if err != nil {
		return nil, fmt.Errorf("index: posting %q: %w", string(key), err)
	}
	if s.cache != nil {
		s.cache.Put(key, post, len(raw))
	}
	return post, nil
}

// Struct implements Source.
func (s *Stored) Struct(name string) ([]xmltree.NodeID, error) {
	var buf [KeyBufLen]byte
	return s.Fetch(appendKey(buf[:0], structPrefix, name))
}

// Text implements Source.
func (s *Stored) Text(term string) ([]xmltree.NodeID, error) {
	var buf [KeyBufLen]byte
	return s.Fetch(appendKey(buf[:0], textPrefix, term))
}

// postingHeaderLen is the encoded posting prefix that holds the entry
// count: the two-byte format marker plus one uvarint.
const postingHeaderLen = 2 + binary.MaxVarintLen64

// StructCount returns the length of the posting for name without decoding
// or even materializing it.
func (s *Stored) StructCount(name string) (int, error) {
	var buf [KeyBufLen]byte
	return s.Count(appendKey(buf[:0], structPrefix, name))
}

// TextCount returns the length of the posting for term, like StructCount.
func (s *Stored) TextCount(term string) (int, error) {
	var buf [KeyBufLen]byte
	return s.Count(appendKey(buf[:0], textPrefix, term))
}

// Count returns the length of the posting stored under key without
// decoding or caching it: a cached posting answers with its length,
// otherwise only the value header is read, so an overflow-chained posting
// costs one descent instead of a page per chain hop.
func (s *Stored) Count(key []byte) (int, error) {
	if s.cache != nil {
		if post, ok := s.cache.Get(key); ok {
			return len(post), nil
		}
	}
	hdr, ok, err := s.db.ValueHeader(key, postingHeaderLen)
	if err != nil || !ok {
		return 0, err
	}
	n, err := PostingCount(hdr)
	if err != nil {
		return 0, fmt.Errorf("index: posting %q: %w", string(key), err)
	}
	return n, nil
}
