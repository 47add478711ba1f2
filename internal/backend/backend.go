// Package backend defines the storage abstraction between the query layers
// and the index implementations: one interface covering the primary posting
// indexes (I_struct, I_text), the path-dependent secondary index I_sec, and
// fetch-level statistics, with an in-memory and a B+tree-backed
// implementation.
//
// The paper's system evaluates queries against indexes kept in Berkeley DB
// (Section 7); this package is the seam that lets every evaluator — the
// direct algorithm of Section 6, the schema-driven planner and the
// incremental execution engine of Section 7 — run unmodified over either
// the in-memory indexes or their persisted B+tree equivalents. Stored
// backends share one mutex-guarded LRU (index.LRU) between all their posting
// readers and report fetch counts, cache hits, and bytes decoded through
// CacheStats.
package backend

import (
	"approxql/internal/index"
	"approxql/internal/schema"
	"approxql/internal/xmltree"
)

// Backend is one indexed collection behind a uniform read surface: the data
// tree, the structural summary, the primary postings (index.Source) and
// their sizes (CountSource), and the secondary postings (schema.SecSource,
// schema.SecCounter). All methods
// are safe for concurrent use; the execution engine shares one Backend
// between its worker goroutines.
type Backend interface {
	index.Source      // Struct, Text: the primary postings
	CountSource       // StructCount, TextCount: their sizes
	schema.SecSource  // SecInstances, SecTermInstances: the I_sec postings
	schema.SecCounter // count-only I_sec access for Explain

	// Tree returns the data tree of the collection.
	Tree() *xmltree.Tree
	// Schema returns the structural summary, building it on first use.
	// The returned schema is shared and must be treated as read-only.
	Schema() *schema.Schema
	// HasSchema reports whether Schema has been built, without building
	// it.
	HasSchema() bool
	// CacheStats reports the cumulative posting-fetch counters of the
	// backend's shared cache layer; in-memory backends report zeros.
	CacheStats() index.CacheStats
	// Close releases the backend's resources (open index files). The
	// backend must not be used afterwards.
	Close() error
}

// CountSource is the count-only surface of a backend: primary posting sizes
// without decoding (or even materializing) the postings. The query planner
// prices the direct algorithm with it (plan.Price); the in-memory backend
// answers exactly from its posting slices, the stored one from encoded
// posting headers (on counter-format stores a single O(log n) descent per
// label).
type CountSource interface {
	// StructCount returns the number of struct nodes labeled name.
	StructCount(name string) (int, error)
	// TextCount returns the number of text nodes labeled term.
	TextCount(term string) (int, error)
}

var (
	_ Backend = (*Memory)(nil)
	_ Backend = (*Stored)(nil)
)
