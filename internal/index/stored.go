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

// PostingCache caches decoded postings for stored index readers. One cache
// is shared by every reader of a backend (the I_struct/I_text postings and
// the I_sec postings live in disjoint key namespaces), so implementations
// must be safe for concurrent use. rawBytes is the encoded size of the
// posting, for cache instrumentation. The production implementation is the
// shared LRU of internal/backend.
type PostingCache interface {
	Get(key string) ([]xmltree.NodeID, bool)
	Put(key string, post []xmltree.NodeID, rawBytes int)
}

// Stored is an index whose postings live in a storage.DB, the role Berkeley
// DB plays in the paper's system. Postings are decoded on demand; attach a
// PostingCache with SetCache to reuse decoded postings across fetches. A
// Stored index without a cache is stateless and safe for concurrent use
// (the underlying store serializes page access); with a cache it is as safe
// as the cache implementation.
type Stored struct {
	db    *storage.DB
	cache PostingCache // nil: every fetch reads and decodes from storage
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

// SetCache attaches a posting cache (nil disables caching).
func (s *Stored) SetCache(c PostingCache) { s.cache = c }

func (s *Stored) fetch(key string) ([]xmltree.NodeID, error) {
	if s.cache != nil {
		if post, ok := s.cache.Get(key); ok {
			return post, nil
		}
	}
	raw, ok, err := s.db.Get([]byte(key))
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, nil
	}
	post, err := DecodePosting(raw)
	if err != nil {
		return nil, fmt.Errorf("index: posting %q: %w", key, err)
	}
	if s.cache != nil {
		s.cache.Put(key, post, len(raw))
	}
	return post, nil
}

// Struct implements Source.
func (s *Stored) Struct(name string) ([]xmltree.NodeID, error) {
	return s.fetch(structPrefix + name)
}

// Text implements Source.
func (s *Stored) Text(term string) ([]xmltree.NodeID, error) {
	return s.fetch(textPrefix + term)
}

// postingHeaderLen is the encoded posting prefix that holds the entry
// count: the two-byte format marker plus one uvarint.
const postingHeaderLen = 2 + binary.MaxVarintLen64

// StructCount returns the length of the posting for name without decoding
// or even materializing it.
func (s *Stored) StructCount(name string) (int, error) {
	return s.count(structPrefix + name)
}

// TextCount returns the length of the posting for term, like StructCount.
func (s *Stored) TextCount(term string) (int, error) {
	return s.count(textPrefix + term)
}

func (s *Stored) count(key string) (int, error) {
	if s.cache != nil {
		if post, ok := s.cache.Get(key); ok {
			return len(post), nil
		}
	}
	hdr, ok, err := s.db.ValueHeader([]byte(key), postingHeaderLen)
	if err != nil || !ok {
		return 0, err
	}
	return PostingCount(hdr)
}
