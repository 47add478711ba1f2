package approxql

import (
	"context"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"approxql/internal/backend"
	"approxql/internal/corpus"
	"approxql/internal/index"
	"approxql/internal/kbest"
	"approxql/internal/storage"
	"approxql/internal/xmltree"
)

// DocID identifies one document of a Corpus in global ingestion order: the
// first document added is 0, the second 1, and so on. DocIDs are stable
// across saving and reopening a corpus bundle.
type DocID = corpus.DocID

// Hit is one ranked corpus answer: the document holding the match, the
// matching subtree's root, and the embedding cost. Root is relative to the
// document's shard tree; resolve it through Corpus.Doc:
//
//	hits, _ := c.Search("cd[title[concerto]]", 10)
//	for _, h := range hits {
//	    fmt.Println(c.Doc(h.Doc).Name(), h.Cost)
//	    fmt.Println(c.Doc(h.Doc).RenderNode(h.Root))
//	}
//
// Hits are ranked by ascending (Cost, Doc, Root) — a strict total order,
// so a ranking is bit-identical regardless of shard count, evaluation
// strategy, or parallelism.
type Hit = corpus.Hit

// DefaultShardDocs is the CorpusBuilder's default shard capacity.
const DefaultShardDocs = 64

// CorpusBuilder ingests XML documents into a new sharded Corpus. Documents
// fill the current shard until it reaches the configured capacity, then a
// fresh shard begins: every shard is a self-contained indexed collection,
// and queries scatter over the shards and gather through one global top-n
// merge.
type CorpusBuilder struct {
	model     *CostModel
	tok       func(string) []string
	shardDocs int

	cur     *xmltree.Builder
	curDocs int
	shards  []*corpus.Shard
	docs    []backend.ManifestDoc
	err     error
}

// NewCorpusBuilder returns a CorpusBuilder. The optional model fixes the
// node-insertion costs baked into the index encoding, as in NewBuilder.
func NewCorpusBuilder(model *CostModel) *CorpusBuilder {
	return &CorpusBuilder{model: model, shardDocs: DefaultShardDocs}
}

// SetShardSize bounds the number of documents per shard (default
// DefaultShardDocs). Call it before adding documents; n < 1 is clamped
// to 1. Smaller shards parallelize and prune better, larger shards
// amortize per-shard schema and index overhead.
func (cb *CorpusBuilder) SetShardSize(n int) {
	if n < 1 {
		n = 1
	}
	cb.shardDocs = n
}

// SetTokenizer replaces the word splitter applied to element text and
// attribute values, as in Builder.SetTokenizer. Call it before adding
// documents.
func (cb *CorpusBuilder) SetTokenizer(tok func(string) []string) { cb.tok = tok }

// AddDocument parses one XML document and adds it to the corpus under the
// given external name (usually the source file path; it may be empty). It
// returns the document's DocID. After an error the builder is poisoned:
// every later call returns the same error.
func (cb *CorpusBuilder) AddDocument(name string, r io.Reader) (DocID, error) {
	if cb.err != nil {
		return 0, cb.err
	}
	if cb.cur == nil {
		cb.cur = xmltree.NewBuilder(cb.model)
		if cb.tok != nil {
			cb.cur.SetTokenizer(cb.tok)
		}
		cb.curDocs = 0
	}
	if err := cb.cur.AddDocument(r); err != nil {
		cb.err = err
		return 0, err
	}
	id := DocID(len(cb.docs))
	cb.docs = append(cb.docs, backend.ManifestDoc{Shard: len(cb.shards), Name: name})
	cb.curDocs++
	if cb.curDocs >= cb.shardDocs {
		if err := cb.flushShard(); err != nil {
			return 0, err
		}
	}
	return id, nil
}

// AddDocumentString is AddDocument over a string.
func (cb *CorpusBuilder) AddDocumentString(name, doc string) (DocID, error) {
	return cb.AddDocument(name, strings.NewReader(doc))
}

// AddDocumentFile parses the XML file at path and adds it under its path
// as the document name.
func (cb *CorpusBuilder) AddDocumentFile(path string) (DocID, error) {
	if cb.err != nil {
		return 0, cb.err
	}
	f, err := os.Open(path)
	if err != nil {
		cb.err = err
		return 0, err
	}
	defer f.Close()
	return cb.AddDocument(path, f)
}

// flushShard freezes the current shard builder into an indexed in-memory
// shard.
func (cb *CorpusBuilder) flushShard() error {
	tree, err := cb.cur.Finish()
	if err != nil {
		cb.err = err
		return err
	}
	cb.shards = append(cb.shards, corpus.NewShard(backend.NewMemory(tree), nil))
	cb.cur = nil
	cb.curDocs = 0
	return nil
}

// Corpus finishes ingestion: it freezes the open shard and assembles the
// corpus. The builder must not be used afterwards.
func (cb *CorpusBuilder) Corpus() (*Corpus, error) {
	if cb.err != nil {
		return nil, cb.err
	}
	if cb.cur != nil {
		if err := cb.flushShard(); err != nil {
			return nil, err
		}
	}
	c, err := corpus.New(cb.shards, cb.docs)
	if err != nil {
		return nil, err
	}
	return &Corpus{c: c}, nil
}

// Corpus is an immutable sharded XML collection supporting approximate
// tree-pattern search over many documents. It generalizes Database: a
// Database is the one-shard special case (Database.Corpus converts), and
// every Corpus query method mirrors the corresponding Database method's
// context and option API, returning Hits (document plus Result) instead
// of bare Results.
//
// A Corpus is safe for concurrent use.
type Corpus struct {
	c *corpus.Corpus
}

// NumDocs returns the number of documents in the corpus.
func (c *Corpus) NumDocs() int { return c.c.NumDocs() }

// NumShards returns the number of shards.
func (c *Corpus) NumShards() int { return c.c.NumShards() }

// Owns reports whether doc lives on one of this corpus's shards — always
// true for a corpus opened whole, false for other nodes' documents when
// the corpus was opened on a shard subset (OpenOptions.Shards). Doc views
// of unowned documents resolve names only.
func (c *Corpus) Owns(doc DocID) bool { return c.c.Owns(doc) }

// Close closes every shard's backend (a no-op for in-memory corpora).
func (c *Corpus) Close() error { return c.c.Close() }

// Corpus converts a Database into the equivalent one-shard Corpus. The
// corpus shares the database's backend; DocIDs follow the order the
// documents were added to the database's builder, with empty names.
func (db *Database) Corpus() (*Corpus, error) {
	return &Corpus{c: corpus.OneShard(db.be, nil)}, nil
}

// Search returns the best n hits for an approXQL query across the whole
// corpus, ranked by ascending (cost, doc, root). n <= 0 returns all
// approximate hits. It accepts the same options as Database.Search;
// WithParallelism bounds the shard-level worker pool.
func (c *Corpus) Search(query string, n int, opts ...QueryOption) ([]Hit, error) {
	return c.SearchContext(context.Background(), query, n, opts...)
}

// SearchContext is Search with cancellation.
func (c *Corpus) SearchContext(ctx context.Context, query string, n int, opts ...QueryOption) ([]Hit, error) {
	return search(ctx, c.c, query, n, nil, opts, func(h Hit, _ *kbest.Entry) Hit { return h })
}

// Plan runs only the planner for a query across the corpus: the per-shard
// strategy split an Auto search would use, without executing anything
// beyond count-only index probes. Strategy is the majority pick; Price
// sums the per-shard prices of the direct algorithm. It is the corpus
// analog of Database.Plan.
func (c *Corpus) Plan(query string, n int, opts ...QueryOption) (PlanDecision, error) {
	return planQuery(c.c, query, n, opts)
}

// Stream retrieves hits incrementally in ascending (cost, doc, root)
// order, calling fn for each; fn returns false to stop. Shards stream
// concurrently and are merged into one globally ordered sequence.
func (c *Corpus) Stream(query string, fn func(Hit) bool, opts ...QueryOption) error {
	return c.StreamContext(context.Background(), query, fn, opts...)
}

// StreamContext is Stream with cancellation. When fn stops the stream the
// return is nil; when the context fires first it is ctx.Err().
func (c *Corpus) StreamContext(ctx context.Context, query string, fn func(Hit) bool, opts ...QueryOption) error {
	return stream(ctx, c.c, query, opts, fn)
}

// Explain returns the best k second-level queries across the corpus with
// their costs and total result counts, merged over shards by label
// structure. It is the corpus analog of Database.Explain; counts come from
// the count-only execution path.
func (c *Corpus) Explain(query string, k int, opts ...QueryOption) ([]CorpusPlan, error) {
	return c.ExplainContext(context.Background(), query, k, opts...)
}

// ExplainContext is Explain with cancellation.
func (c *Corpus) ExplainContext(ctx context.Context, query string, k int, opts ...QueryOption) ([]CorpusPlan, error) {
	return explain(ctx, c.c, query, k, opts)
}

// DocView addresses one corpus document: its name, root, and rendering
// helpers resolving shard-local NodeIDs (as carried by Hits of that
// document).
type DocView struct {
	c  *corpus.Corpus
	id DocID
}

// Doc returns a view of the document. id must be in [0, NumDocs); an
// out-of-range id panics, like an out-of-range slice index.
func (c *Corpus) Doc(id DocID) DocView {
	if id < 0 || int(id) >= c.c.NumDocs() {
		panic(fmt.Sprintf("approxql: DocID %d out of range [0, %d)", id, c.c.NumDocs()))
	}
	return DocView{c: c.c, id: id}
}

// ID returns the document's DocID.
func (d DocView) ID() DocID { return d.id }

// Name returns the document's external name (empty when the corpus was
// built without names).
func (d DocView) Name() string { return d.c.DocName(d.id) }

// Root returns the document's root node in its shard tree.
func (d DocView) Root() NodeID { return d.c.DocRoot(d.id) }

// Render pretty-prints the whole document.
func (d DocView) Render() string { return d.RenderNode(d.Root()) }

// RenderNode pretty-prints the subtree rooted at a node of this
// document's shard tree — typically a Hit.Root.
func (d DocView) RenderNode(u NodeID) string {
	return d.c.ShardOf(d.id).Backend().Tree().RenderString(u)
}

// Label returns the label of a node of this document's shard tree.
func (d DocView) Label(u NodeID) string {
	return d.c.ShardOf(d.id).Backend().Tree().Label(u)
}

// Path returns the label-type path of a node of this document's shard
// tree, e.g. "<root>/catalog/cd".
func (d DocView) Path(u NodeID) string {
	return d.c.ShardOf(d.id).Path(u)
}

// CorpusStats summarizes a corpus.
type CorpusStats struct {
	// Docs and Shards count documents and shards.
	Docs   int
	Shards int
	// Nodes totals the shard trees' nodes (each shard's super-root
	// included).
	Nodes int
	// MaxDepth is the deepest root-to-leaf path over all shards.
	MaxDepth int
}

// Stats aggregates the per-shard summaries. Docs counts the documents
// this corpus actually serves — the full table for a whole bundle,
// fewer when opened on a shard subset.
func (c *Corpus) Stats() CorpusStats {
	st := CorpusStats{Docs: c.c.NumOwnedDocs(), Shards: c.c.NumShards()}
	for _, sh := range c.c.Shards() {
		sum := sh.Summary()
		st.Nodes += sum.Nodes
		if sum.MaxDepth > st.MaxDepth {
			st.MaxDepth = sum.MaxDepth
		}
	}
	return st
}

// SetStoredCacheSize divides a total posting-cache budget of n entries
// across the corpus's stored shards (n <= 0 disables caching). It returns
// ErrNotStored when no shard reads from stored indexes — in-memory shards
// have no posting cache to size.
func (c *Corpus) SetStoredCacheSize(n int) error {
	var stored []*backend.Stored
	for _, sh := range c.c.Shards() {
		if s, ok := sh.Backend().(*backend.Stored); ok {
			stored = append(stored, s)
		}
	}
	if len(stored) == 0 {
		return ErrNotStored
	}
	per := n / len(stored)
	if n > 0 && per < 1 {
		per = 1
	}
	for _, s := range stored {
		s.SetCacheCapacity(per)
	}
	return nil
}

// SaveBundle persists the corpus as a multi-shard bundle at path:
// each shard's collection, postings, and secondary files are written next
// to the manifest, named after the manifest's base name ("c.bundle" yields
// "c.s0.axql", "c.s0.post", "c.s0.sec", ...). Open the result with Open.
// The corpus must be in-memory (built with CorpusBuilder); a corpus opened
// from stored indexes is already persisted.
func (c *Corpus) SaveBundle(path string) error {
	base := strings.TrimSuffix(path, ".bundle")
	m := backend.Manifest{Docs: c.c.DocTable()}
	for i, sh := range c.c.Shards() {
		mem, ok := sh.Backend().(*backend.Memory)
		if !ok {
			return fmt.Errorf("approxql: corpus already reads from stored indexes")
		}
		cs := backend.ManifestShard{
			Collection: fmt.Sprintf("%s.s%d.axql", base, i),
			Postings:   fmt.Sprintf("%s.s%d.post", base, i),
			Secondary:  fmt.Sprintf("%s.s%d.sec", base, i),
			Summary:    sh.Summary(),
		}
		f, err := os.Create(cs.Collection)
		if err != nil {
			return err
		}
		if _, err := mem.Tree().WriteTo(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		if err := storage.Persist(cs.Postings, func(s *storage.DB) error {
			return index.Save(mem.Index(), s)
		}); err != nil {
			return err
		}
		if err := storage.Persist(cs.Secondary, mem.Schema().SaveSec); err != nil {
			return err
		}
		m.Shards = append(m.Shards, cs)
	}
	return backend.WriteManifest(path, m)
}

// IsCorpusBundle reports whether path holds a corpus bundle manifest: a
// readable manifest with a document table. Open handles every artifact kind
// without this check; it exists for callers that branch before opening, for
// example to reject single-database-only flags.
func IsCorpusBundle(path string) bool { return backend.IsCorpusBundle(path) }

// OpenOptions tune Open. The zero value (or a nil pointer) uses default
// insertion costs and the default per-shard posting cache.
type OpenOptions struct {
	// Model fixes the node-insertion costs, as in NewBuilder; it must
	// match the model used at indexing time.
	Model *CostModel
	// CacheEntries is the total posting-cache budget divided across
	// stored shards; 0 keeps the per-shard default
	// (backend.DefaultCacheEntries each), < 0 disables caching.
	CacheEntries int
	// Shards restricts a multi-shard corpus bundle to the listed shard
	// indices (as numbered in the manifest), opening only their index
	// files — how a cluster shard node serves its slice of a bundle.
	// Global DocIDs are preserved, so hits from different nodes of one
	// bundle stay comparable. Empty opens every shard; non-bundle
	// artifacts reject the option.
	Shards []int
	// MMap serves stored shards' index pages straight out of read-only
	// memory mappings instead of per-shard page caches. Advisory: where
	// mapping is unavailable the pager is used silently, and in-memory
	// artifacts (plain collection files) ignore it. Results are identical
	// either way.
	MMap bool
}

// Open opens any persisted approXQL artifact at path as a Corpus — the
// single entry point subsuming OpenDatabaseFile, OpenBundle, and
// OpenStored:
//
//   - a corpus bundle (a manifest with a document table, written by
//     SaveBundle or axqlindex -shard-docs) opens with all its shards;
//   - a single-database bundle (one shard, no document table, written by
//     WriteBundle or axqlindex -postings -secondary) opens as a one-shard
//     corpus over its stored indexes;
//   - a plain collection file (written by Database.WriteTo) loads into a
//     one-shard in-memory corpus, rebuilding indexes and schema.
//
// A bundle, collection file, or index file in a format version this build
// does not read fails with an error matching ErrUnsupportedVersion. Close
// the corpus to release stored shards' index files.
func Open(path string, opts *OpenOptions) (*Corpus, error) {
	var o OpenOptions
	if opts != nil {
		o = *opts
	}
	if backend.IsBundle(path) {
		m, err := backend.ReadManifest(path)
		if err != nil {
			return nil, err
		}
		if len(m.Docs) > 0 {
			return openCorpusBundle(m, o)
		}
	}
	if len(o.Shards) > 0 {
		return nil, fmt.Errorf("approxql: %s is not a multi-shard corpus bundle; Shards requires one", path)
	}
	db, err := OpenDatabaseFileOptions(path, &o)
	if err != nil {
		return nil, err
	}
	c, err := db.Corpus()
	if err != nil {
		db.Close()
		return nil, err
	}
	return c, nil
}

// openCorpusBundle opens a corpus manifest: every shard (or just o.Shards)
// over its stored indexes, with the manifest's pruning summaries.
func openCorpusBundle(m backend.Manifest, o OpenOptions) (*Corpus, error) {
	keep := o.Shards
	if len(keep) == 0 {
		keep = make([]int, len(m.Shards))
		for i := range keep {
			keep[i] = i
		}
	} else {
		keep = append([]int(nil), keep...)
		sort.Ints(keep)
		for i, si := range keep {
			if si < 0 || si >= len(m.Shards) {
				return nil, fmt.Errorf("approxql: shard index %d out of range [0, %d)", si, len(m.Shards))
			}
			if i > 0 && keep[i-1] == si {
				return nil, fmt.Errorf("approxql: shard index %d listed twice", si)
			}
		}
	}
	perShard := backend.DefaultCacheEntries
	if o.CacheEntries != 0 {
		perShard = o.CacheEntries / len(keep)
		if o.CacheEntries > 0 && perShard < 1 {
			perShard = 1
		}
	}
	shards := make([]*corpus.Shard, 0, len(keep))
	closeAll := func() {
		for _, sh := range shards {
			sh.Backend().Close()
		}
	}
	for _, si := range keep {
		cs := m.Shards[si]
		tree, err := readTreeFile(cs.Collection, o.Model)
		if err != nil {
			closeAll()
			return nil, err
		}
		be, err := backend.OpenStoredOptions(tree, cs.Postings, cs.Secondary,
			backend.StoredOptions{CacheEntries: perShard, MMap: o.MMap})
		if err != nil {
			closeAll()
			return nil, err
		}
		shards = append(shards, corpus.NewShard(be, cs.Summary))
	}
	c, err := corpus.NewSubset(shards, keep, len(m.Shards), m.Docs)
	if err != nil {
		closeAll()
		return nil, err
	}
	return &Corpus{c: c}, nil
}
