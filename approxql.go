package approxql

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"

	"approxql/internal/lang"

	"approxql/internal/backend"
	"approxql/internal/corpus"
	"approxql/internal/cost"
	"approxql/internal/eval"
	"approxql/internal/format"
	"approxql/internal/index"
	"approxql/internal/schema"
	"approxql/internal/storage"
	"approxql/internal/xmltree"
)

// Re-exported cost-model vocabulary. A CostModel assigns costs to the basic
// query transformations; labels without explicit entries use the paper's
// defaults (insert 1, delete and rename forbidden).
type (
	// CostModel assigns costs to insertions, deletions, and renamings.
	CostModel = cost.Model
	// Cost is a non-negative transformation cost.
	Cost = cost.Cost
	// Kind distinguishes element/attribute names (Struct) from terms (Text).
	Kind = cost.Kind
)

// Inf is the infinite cost: a forbidden transformation.
const Inf = cost.Inf

// Struct and Text are the two label kinds.
const (
	Struct = cost.Struct
	Text   = cost.Text
)

// NewCostModel returns a model with the default convention: every insertion
// costs 1, deletions and renamings are forbidden until configured.
func NewCostModel() *CostModel { return cost.NewModel() }

// ParseCostModel reads a cost model from its textual format; see the
// internal/cost package documentation for the line syntax:
//
//	default insert <cost>
//	insert <kind> <label> <cost>
//	delete <kind> <label> <cost>
//	rename <kind> <from> <to> <cost>
func ParseCostModel(r io.Reader) (*CostModel, error) { return cost.Parse(r) }

// PaperCostModel returns the example cost table of the paper's Section 6,
// used throughout its worked examples (CD catalogs).
func PaperCostModel() *CostModel { return cost.PaperExample() }

// NodeID identifies a node of the indexed collection; result roots are
// NodeIDs usable with Database.Render.
type NodeID = xmltree.NodeID

// Result is one ranked answer: the root of a matching subtree and the cost
// of the cheapest transformation sequence that embeds the query there.
// Lower is better; 0 is an exact match.
type Result = eval.Result

// Builder ingests XML documents into a new Database.
type Builder struct {
	b   *xmltree.Builder
	err error
}

// NewBuilder returns a Builder. The optional model fixes the node-insertion
// costs baked into the index encoding (nil uses insert cost 1 everywhere,
// the paper's experimental convention); deletion and renaming costs are
// supplied per query instead.
func NewBuilder(model *CostModel) *Builder {
	return &Builder{b: xmltree.NewBuilder(model)}
}

// SetTokenizer replaces the word splitter applied to element text and
// attribute values (the default lowercases and splits on non-alphanumeric
// runes). Call it before adding documents; query text selectors are always
// normalized with the default tokenizer, so a custom tokenizer should
// produce compatible word forms.
func (bl *Builder) SetTokenizer(tok func(string) []string) {
	bl.b.SetTokenizer(tok)
}

// AddXML parses one XML document and adds it to the collection.
func (bl *Builder) AddXML(r io.Reader) error {
	if bl.err != nil {
		return bl.err
	}
	if err := bl.b.AddDocument(r); err != nil {
		bl.err = err
		return err
	}
	return nil
}

// AddXMLString is AddXML over a string.
func (bl *Builder) AddXMLString(doc string) error {
	return bl.AddXML(strings.NewReader(doc))
}

// AddXMLFile parses the XML file at path and adds it to the collection.
func (bl *Builder) AddXMLFile(path string) error {
	if bl.err != nil {
		return bl.err
	}
	f, err := os.Open(path)
	if err != nil {
		bl.err = err
		return err
	}
	defer f.Close()
	return bl.AddXML(f)
}

// Database finishes ingestion: it freezes the data tree and builds the
// indexes. The Builder must not be used afterwards.
func (bl *Builder) Database() (*Database, error) {
	if bl.err != nil {
		return nil, bl.err
	}
	tree, err := bl.b.Finish()
	if err != nil {
		return nil, err
	}
	return newDatabase(tree), nil
}

// Database is an indexed, immutable XML collection supporting approximate
// tree-pattern search. It is safe for concurrent use.
//
// A Database reads its postings through a storage backend: in-memory
// indexes for databases built from XML (Builder) or loaded from a
// collection file (OpenDatabaseFile), B+tree files for databases opened
// over persisted indexes (OpenStored, OpenBundle). Every query path —
// direct evaluation, the schema-driven plan stream, Explain — runs
// unmodified over either backend.
//
// A Database is a one-shard Corpus: Search, Stream, Results, and Plan run
// the corpus's search path over its single shard.
type Database struct {
	be backend.Backend
	c  *corpus.Corpus
}

func newDatabase(tree *xmltree.Tree) *Database {
	return databaseOver(backend.NewMemory(tree))
}

// databaseOver wraps a backend as a Database. Its one-shard corpus has an
// empty summary, which admits every label: one shard has nothing to
// prune, so the summary walk is skipped.
func databaseOver(be backend.Backend) *Database {
	return &Database{be: be, c: corpus.OneShard(be, &backend.Summary{})}
}

// Schema returns the database's structural summary, building it on first
// use. The schema is shared and must be treated as read-only.
func (db *Database) Schema() *schema.Schema { return db.be.Schema() }

// Tree exposes the underlying data tree for advanced integrations (the
// benchmark harness, the CLIs).
func (db *Database) Tree() *xmltree.Tree { return db.be.Tree() }

// Index exposes the in-memory label indexes, or nil when the database
// reads its postings from stored indexes (OpenStored, OpenBundle).
func (db *Database) Index() *index.Memory {
	if m, ok := db.be.(*backend.Memory); ok {
		return m.Index()
	}
	return nil
}

// Close releases the database's resources (open index files of a stored
// backend). It is a no-op for in-memory databases.
func (db *Database) Close() error { return db.be.Close() }

// Render pretty-prints the subtree rooted at a result root.
func (db *Database) Render(root NodeID) string {
	return db.be.Tree().RenderString(root)
}

// Label returns the label of a node (element name or word).
func (db *Database) Label(u NodeID) string { return db.be.Tree().Label(u) }

// Path returns the label-type path of a node, e.g. "<root>/catalog/cd".
// Once the database has built its schema, element paths are memoized per
// schema class; Path never builds the schema itself.
func (db *Database) Path(u NodeID) string { return db.c.Shards()[0].Path(u) }

// Len returns the number of nodes in the collection, including the
// synthetic super-root.
func (db *Database) Len() int { return db.be.Tree().Len() }

// Stats summarizes a collection and its schema.
type Stats struct {
	// Nodes counts all data-tree nodes including the super-root.
	Nodes int
	// Elements counts struct nodes (elements and attributes).
	Elements int
	// Words counts text nodes.
	Words int
	// Documents counts top-level documents.
	Documents int
	// MaxDepth is the longest root-to-leaf path in edges.
	MaxDepth int
	// Selectivity is s of the paper's complexity analysis: the largest
	// number of nodes sharing one label.
	Selectivity int
	// Recursivity is l: the largest number of repetitions of one label
	// along a single path.
	Recursivity int
	// SchemaClasses counts the nodes of the structural summary.
	SchemaClasses int
	// LargestClass is s_d: the most instances of any one class.
	LargestClass int
}

// Stats computes collection statistics (walks the tree once and builds the
// schema if not yet built).
func (db *Database) Stats() Stats {
	ts := db.be.Tree().ComputeStats()
	ss := db.Schema().ComputeStats()
	return Stats{
		Nodes:         ts.Nodes,
		Elements:      ts.StructNodes,
		Words:         ts.TextNodes,
		Documents:     ts.Documents,
		MaxDepth:      ts.MaxDepth,
		Selectivity:   ts.Selectivity,
		Recursivity:   ts.Recursivity,
		SchemaClasses: ss.Classes,
		LargestClass:  ss.MaxInstances,
	}
}

// WriteTo serializes the collection (dictionaries and structure). Indexes
// and schema are rebuilt on load. It implements io.WriterTo.
func (db *Database) WriteTo(w io.Writer) (int64, error) {
	return db.be.Tree().WriteTo(w)
}

// ErrUnsupportedVersion matches (errors.Is) the error every open function
// returns for a bundle manifest, collection file, index file, or posting
// written in a format version this build does not read. Each file kind has
// one current format; rebuild the bundle with axqlindex to upgrade.
var ErrUnsupportedVersion = format.ErrUnsupportedVersion

// ReadDatabase loads a collection written by WriteTo, re-encoding the
// insertion costs under model (nil for defaults).
func ReadDatabase(r io.Reader, model *CostModel) (*Database, error) {
	tree, err := xmltree.ReadTree(r, model)
	if err != nil {
		return nil, err
	}
	return newDatabase(tree), nil
}

// OpenDatabaseFile loads a collection file written by WriteTo into an
// in-memory database, rebuilding indexes and schema. When path is a bundle
// manifest (written by axqlindex or WriteBundle) it opens the stored
// backend instead — the persisted B+tree indexes are queried directly and
// nothing is rebuilt beyond the schema structure.
//
// OpenDatabaseFile is the single-database special case of Open, which
// additionally accepts multi-shard corpus bundles; new code should prefer
// Open.
func OpenDatabaseFile(path string, model *CostModel) (*Database, error) {
	if backend.IsBundle(path) {
		return OpenBundle(path, model)
	}
	tree, err := readTreeFile(path, model)
	if err != nil {
		return nil, err
	}
	return newDatabase(tree), nil
}

// readTreeFile loads the collection file at path.
func readTreeFile(path string, model *CostModel) (*xmltree.Tree, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tree, err := xmltree.ReadTree(f, model)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return tree, nil
}

// OpenDatabaseFileOptions is OpenDatabaseFile honoring the OpenOptions that
// apply to a single-database artifact: Model, CacheEntries, and MMap.
// Shards is rejected (it requires a multi-shard corpus bundle — use Open).
// MMap and CacheEntries only affect bundle (stored) artifacts; a plain
// collection file loads into memory and ignores both.
func OpenDatabaseFileOptions(path string, opts *OpenOptions) (*Database, error) {
	var o OpenOptions
	if opts != nil {
		o = *opts
	}
	if len(o.Shards) > 0 {
		return nil, fmt.Errorf("approxql: Shards requires a multi-shard corpus bundle; use Open")
	}
	if !backend.IsBundle(path) {
		return OpenDatabaseFile(path, o.Model)
	}
	m, err := backend.ReadManifest(path)
	if err != nil {
		return nil, err
	}
	return openSingleShard(path, m, o)
}

// OpenStored opens a collection over its persisted indexes: collection is
// the file written by WriteTo (or axqlindex -out), postings the B+tree
// holding I_struct/I_text, secondary the B+tree holding I_sec (both written
// by PersistIndexes or axqlindex -postings/-secondary). The index files are
// opened read-only and postings are fetched on demand through one shared
// LRU, so queries run without re-ingesting XML or rebuilding postings. The
// optional model fixes the node-insertion costs, as in NewBuilder; it must
// match the model used at indexing time for the stored postings to agree
// with the tree encoding. Close the returned database to release the index
// files.
func OpenStored(collection, postings, secondary string, model *CostModel) (*Database, error) {
	return openStored(collection, postings, secondary, model,
		backend.StoredOptions{CacheEntries: backend.DefaultCacheEntries})
}

func openStored(collection, postings, secondary string, model *CostModel, sopts backend.StoredOptions) (*Database, error) {
	tree, err := readTreeFile(collection, model)
	if err != nil {
		return nil, err
	}
	be, err := backend.OpenStoredOptions(tree, postings, secondary, sopts)
	if err != nil {
		return nil, err
	}
	return databaseOver(be), nil
}

// OpenBundle opens the stored database described by a single-database
// bundle manifest (one shard, no document table), the one-path form of
// OpenStored. Such bundles are written by WriteBundle and by axqlindex when
// it persists both index files. It is a special case of Open, which also
// accepts multi-shard corpus bundles.
func OpenBundle(path string, model *CostModel) (*Database, error) {
	m, err := backend.ReadManifest(path)
	if err != nil {
		return nil, err
	}
	return openSingleShard(path, m, OpenOptions{Model: model})
}

// openSingleShard opens the stored database of a single-database manifest
// read from path, honoring o.Model, o.CacheEntries, and o.MMap.
func openSingleShard(path string, m backend.Manifest, o OpenOptions) (*Database, error) {
	if len(m.Docs) > 0 {
		return nil, fmt.Errorf("approxql: %s is a multi-shard corpus bundle; open it with approxql.Open", path)
	}
	ce := o.CacheEntries
	if ce == 0 {
		ce = backend.DefaultCacheEntries
	}
	sh := m.Shards[0]
	return openStored(sh.Collection, sh.Postings, sh.Secondary, o.Model,
		backend.StoredOptions{CacheEntries: ce, MMap: o.MMap})
}

// WriteBundle writes a single-database bundle manifest at path referencing
// a collection file and its two persisted index files, relativized to the
// manifest's directory so the files can move as a unit.
func WriteBundle(path, collection, postings, secondary string) error {
	return backend.WriteManifest(path, backend.Manifest{Shards: []backend.ManifestShard{{
		Collection: collection, Postings: postings, Secondary: secondary,
	}}})
}

// PersistIndexes writes the database's postings (I_struct/I_text) and
// path-dependent secondary index (I_sec) into two B+tree files, the inputs
// of OpenStored. An empty path skips that store. The database must be
// in-memory (built from XML or loaded from a collection file).
func (db *Database) PersistIndexes(postings, secondary string) error {
	m, ok := db.be.(*backend.Memory)
	if !ok {
		return fmt.Errorf("approxql: database already reads from stored indexes")
	}
	if postings != "" {
		if err := storage.Persist(postings, func(s *storage.DB) error {
			return index.Save(m.Index(), s)
		}); err != nil {
			return err
		}
	}
	if secondary == "" {
		return nil
	}
	return storage.Persist(secondary, db.Schema().SaveSec)
}

// MMapped reports whether the database serves its stored indexes from
// read-only memory mappings (OpenOptions.MMap honored); always false for
// in-memory databases and for platforms without mmap support.
func (db *Database) MMapped() bool {
	s, ok := db.be.(*backend.Stored)
	return ok && s.MMapped()
}

// Fingerprint parses a query and returns a compact, stable identifier of
// its canonical parse tree: syntactically different spellings of the same
// query — extra whitespace, redundant parentheses, multi-word text selectors
// versus explicit conjunctions — share one fingerprint. It is the cache key
// primitive for result caches layered over a Database (see internal/server):
// two queries with equal fingerprints evaluated with equal n, strategy, and
// cost model produce identical rankings.
func Fingerprint(query string) (string, error) {
	q, err := lang.Parse(query)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256([]byte(q.String()))
	return hex.EncodeToString(sum[:16]), nil
}

// ErrNotStored reports that a cache-administration call targeted a
// database or corpus whose postings are served from memory: there is no
// posting cache to size, so the requested capacity would silently not
// apply.
var ErrNotStored = errors.New("approxql: postings are in memory, not stored; no cache to size")

// SetStoredCacheSize resizes the shared posting cache of a stored database
// to n entries (n <= 0 disables caching). It returns ErrNotStored for
// in-memory databases, whose postings bypass the cache layer entirely.
// See docs/BACKENDS.md for sizing guidance.
func (db *Database) SetStoredCacheSize(n int) error {
	s, ok := db.be.(*backend.Stored)
	if !ok {
		return ErrNotStored
	}
	s.SetCacheCapacity(n)
	return nil
}
