package backend

import (
	"fmt"
	"sync"
	"sync/atomic"

	"approxql/internal/index"
	"approxql/internal/schema"
	"approxql/internal/storage"
	"approxql/internal/xmltree"
)

// Stored is the B+tree-backed backend: primary postings and I_sec are
// served from storage files written by index.Save and Schema.SaveSec, the
// role Berkeley DB plays in the paper's system. Decoded postings from both
// stores share one LRU; the structural summary is rebuilt from the data
// tree on first use (the schema is small — one node per label-type path —
// while the postings it indexes are what the store keeps on disk).
type Stored struct {
	tree   *xmltree.Tree
	post   *index.Stored
	sec    *schema.StoredSec
	postDB *storage.DB
	secDB  *storage.DB
	lru    *index.LRU

	schemaOnce sync.Once
	sch        atomic.Pointer[schema.Schema]

	closeOnce sync.Once
	closeErr  error
}

// DefaultCacheEntries is the posting-cache capacity backends open with.
const DefaultCacheEntries = 4096

// StoredOptions tune OpenStoredOptions.
type StoredOptions struct {
	// CacheEntries bounds the shared LRU of decoded postings (<= 0 disables
	// caching; DefaultCacheEntries is the usual choice).
	CacheEntries int
	// MMap asks storage to serve pages straight out of a read-only memory
	// mapping instead of the page cache. It is advisory: platforms or
	// files where mapping fails fall back to the pager silently (check
	// MMapped). Query results are identical either way.
	MMap bool
}

// OpenStoredOptions opens the stored backend over tree: postings is the
// B+tree file holding I_struct/I_text (index.Save), secondary the file
// holding I_sec (Schema.SaveSec). Both files are opened read-only and shared
// through one LRU of decoded postings.
func OpenStoredOptions(tree *xmltree.Tree, postings, secondary string, opts StoredOptions) (*Stored, error) {
	sopts := &storage.Options{ReadOnly: true, MMap: opts.MMap}
	postDB, err := storage.Open(postings, sopts)
	if err != nil {
		return nil, fmt.Errorf("backend: postings %s: %w", postings, err)
	}
	secDB, err := storage.Open(secondary, sopts)
	if err != nil {
		postDB.Close()
		return nil, fmt.Errorf("backend: secondary %s: %w", secondary, err)
	}
	lru := index.NewLRU(opts.CacheEntries)
	post := index.OpenStored(postDB)
	post.SetCache(lru)
	sec := schema.OpenStoredSec(secDB)
	sec.SetCache(lru)
	return &Stored{
		tree:   tree,
		post:   post,
		sec:    sec,
		postDB: postDB,
		secDB:  secDB,
		lru:    lru,
	}, nil
}

// Tree implements Backend.
func (s *Stored) Tree() *xmltree.Tree { return s.tree }

// Schema implements Backend, building the structural summary on first use.
func (s *Stored) Schema() *schema.Schema {
	s.schemaOnce.Do(func() { s.sch.Store(schema.Build(s.tree)) })
	return s.sch.Load()
}

// HasSchema implements Backend.
func (s *Stored) HasSchema() bool { return s.sch.Load() != nil }

// Struct implements index.Source.
func (s *Stored) Struct(name string) ([]xmltree.NodeID, error) { return s.post.Struct(name) }

// Text implements index.Source.
func (s *Stored) Text(term string) ([]xmltree.NodeID, error) { return s.post.Text(term) }

// StructCount implements CountSource from the encoded posting header.
func (s *Stored) StructCount(name string) (int, error) { return s.post.StructCount(name) }

// TextCount implements CountSource from the encoded posting header.
func (s *Stored) TextCount(term string) (int, error) { return s.post.TextCount(term) }

// SecInstances implements schema.SecSource.
func (s *Stored) SecInstances(c schema.NodeID) ([]xmltree.NodeID, error) {
	return s.sec.SecInstances(c)
}

// SecTermInstances implements schema.SecSource.
func (s *Stored) SecTermInstances(c schema.NodeID, term string) ([]xmltree.NodeID, error) {
	return s.sec.SecTermInstances(c, term)
}

// SecInstancesUpTo implements schema.SecSourceUpTo.
func (s *Stored) SecInstancesUpTo(c schema.NodeID, bound xmltree.NodeID) ([]xmltree.NodeID, error) {
	return s.sec.SecInstancesUpTo(c, bound)
}

// SecTermInstancesUpTo implements schema.SecSourceUpTo.
func (s *Stored) SecTermInstancesUpTo(c schema.NodeID, term string, bound xmltree.NodeID) ([]xmltree.NodeID, error) {
	return s.sec.SecTermInstancesUpTo(c, term, bound)
}

// SecInstanceCount implements schema.SecCounter.
func (s *Stored) SecInstanceCount(c schema.NodeID) (int, error) {
	return s.sec.SecInstanceCount(c)
}

// SecTermInstanceCount implements schema.SecCounter.
func (s *Stored) SecTermInstanceCount(c schema.NodeID, term string) (int, error) {
	return s.sec.SecTermInstanceCount(c, term)
}

// MMapped reports whether both index files are served from read-only
// memory mappings (storage.Options.MMap honored on this platform).
func (s *Stored) MMapped() bool {
	return s.postDB.MMapped() && s.secDB.MMapped()
}

// CacheStats implements Backend: the counters of the shared LRU plus the
// page-level counters of both underlying stores.
func (s *Stored) CacheStats() index.CacheStats {
	st := s.lru.Stats()
	pr, pe := s.postDB.PageStats()
	sr, se := s.secDB.PageStats()
	st.PageReads = int64(pr + sr)
	st.PageEvictions = int64(pe + se)
	return st
}

// SetCacheCapacity resizes the shared posting cache to n entries.
func (s *Stored) SetCacheCapacity(n int) { s.lru.SetCapacity(n) }

// Close implements Backend, closing both index files. Close is idempotent.
func (s *Stored) Close() error {
	s.closeOnce.Do(func() {
		err := s.postDB.Close()
		if cerr := s.secDB.Close(); cerr != nil && err == nil {
			err = cerr
		}
		s.closeErr = err
	})
	return s.closeErr
}
