// Package corpus evaluates approximate tree-pattern queries over a sharded
// collection: N self-contained shards, each a backend.Backend with its own
// data tree, schema, and indexes, holding a bounded number of documents.
//
// Queries scatter over a shard-level worker pool and gather through one
// global top-n heap ordered by (cost, doc, root) — a strict total order, so
// the merged ranking is independent of shard count, shard layout, worker
// scheduling, and strategy. Two mechanisms keep the fan-out from doing the
// full per-shard work n times over:
//
//   - Shard pruning: every result root is an instance of a schema class
//     carrying the query's root label or one of its renamings, so a shard
//     whose Summary contains none of those labels is skipped outright.
//   - Cost-bound cutoff: once the heap holds n hits, its worst cost is
//     published to the in-flight shards through exec.Config.Bound. The
//     bound is monotone non-increasing, so each shard's k-growing loop
//     terminates at the first planned second-level query that can no
//     longer displace a global top-n entry.
//
// The package works on expanded queries (lang.Expanded); parsing, cost
// models, and rendering live in the public facade.
package corpus

import (
	"fmt"
	"sort"

	"approxql/internal/backend"
	"approxql/internal/cost"
	"approxql/internal/exec"
	"approxql/internal/lang"
	"approxql/internal/xmltree"
)

// DocID identifies one document of the corpus in global ingestion order.
type DocID int

// Hit is one ranked corpus answer: the document holding the match, the
// matching subtree's root in that document's shard tree, and the embedding
// cost. Hits are ordered by (Cost, Doc, Root) ascending.
type Hit struct {
	Doc  DocID
	Root xmltree.NodeID
	Cost cost.Cost
}

// less is the corpus's strict total order on hits.
func less(a, b Hit) bool {
	if a.Cost != b.Cost {
		return a.Cost < b.Cost
	}
	if a.Doc != b.Doc {
		return a.Doc < b.Doc
	}
	return a.Root < b.Root
}

// Shard is one self-contained slice of the corpus: a backend plus the
// bookkeeping tying its local document roots to global DocIDs.
type Shard struct {
	be      backend.Backend
	summary backend.Summary
	// docRoots are the shard tree's document roots in preorder (ascending);
	// globalIDs[i] is the corpus-wide DocID of the document at docRoots[i].
	docRoots  []xmltree.NodeID
	globalIDs []DocID
}

// NewShard wraps a backend as a corpus shard. summary may be nil (a v3
// manifest written without summaries, or a freshly built shard); it is then
// computed from the shard tree in one walk.
func NewShard(be backend.Backend, summary *backend.Summary) *Shard {
	s := &Shard{be: be, docRoots: be.Tree().Documents()}
	if summary != nil {
		s.summary = *summary
	} else {
		s.summary = backend.Summarize(be.Tree())
	}
	return s
}

// Backend returns the shard's backend.
func (s *Shard) Backend() backend.Backend { return s.be }

// Summary returns the shard's pruning summary (read-only).
func (s *Shard) Summary() *backend.Summary { return &s.summary }

// NumDocs returns the shard's document count.
func (s *Shard) NumDocs() int { return len(s.docRoots) }

// docOf attributes a result root to the shard document containing it. Doc
// subtrees partition the shard tree's node range below the super-root, so a
// binary search over the preorder-ascending docRoots finds the owner.
func (s *Shard) docOf(root xmltree.NodeID) (DocID, bool) {
	i := sort.Search(len(s.docRoots), func(i int) bool { return s.docRoots[i] > root }) - 1
	if i < 0 || root > s.be.Tree().Bound(s.docRoots[i]) {
		return 0, false
	}
	return s.globalIDs[i], true
}

// Corpus is an immutable sharded collection. It is safe for concurrent use;
// concurrent Search/Stream/Explain calls share the shard backends, which
// are themselves concurrency-safe.
type Corpus struct {
	shards []*Shard
	// docShard maps each global DocID to its shard index; docLocal to the
	// document's index within that shard; docNames to its external name.
	docShard []int32
	docLocal []int32
	docNames []string
}

// New assembles a corpus from its shards and the global document table
// (backend.ManifestDoc entries in DocID order, as stored in a bundle
// manifest). The table must assign to each shard exactly as many documents
// as its tree holds; documents of one shard must appear in the table in the
// shard tree's preorder.
func New(shards []*Shard, docs []backend.ManifestDoc) (*Corpus, error) {
	idx := make([]int, len(shards))
	for i := range idx {
		idx[i] = i
	}
	return NewSubset(shards, idx, len(shards), docs)
}

// NewSubset assembles the sub-corpus a shard node serves: shards holds the
// opened shards, shardIdx their indices in the full bundle's shard list
// (of totalShards entries), and docs the bundle's complete document table.
// Global DocIDs are preserved — every node of a cluster attributes the same
// document the same identity — so documents living on dropped shards keep
// their table entries (name included) but have no backing shard; queries
// against the subset can only ever hit owned documents.
func NewSubset(shards []*Shard, shardIdx []int, totalShards int, docs []backend.ManifestDoc) (*Corpus, error) {
	if len(shards) != len(shardIdx) {
		return nil, fmt.Errorf("corpus: %d shards with %d indices", len(shards), len(shardIdx))
	}
	pos := make(map[int]int, len(shardIdx))
	for i, si := range shardIdx {
		if si < 0 || si >= totalShards {
			return nil, fmt.Errorf("corpus: shard index %d out of range [0, %d)", si, totalShards)
		}
		if _, dup := pos[si]; dup {
			return nil, fmt.Errorf("corpus: shard index %d listed twice", si)
		}
		pos[si] = i
	}
	c := &Corpus{
		shards:   shards,
		docShard: make([]int32, len(docs)),
		docLocal: make([]int32, len(docs)),
		docNames: make([]string, len(docs)),
	}
	next := make([]int, len(shards))
	for id, d := range docs {
		c.docNames[id] = d.Name
		if d.Shard < 0 || d.Shard >= totalShards {
			return nil, fmt.Errorf("corpus: doc %d names shard %d of %d", id, d.Shard, totalShards)
		}
		i, kept := pos[d.Shard]
		if !kept {
			c.docShard[id] = -1
			c.docLocal[id] = -1
			continue
		}
		sh := shards[i]
		local := next[i]
		if local >= len(sh.docRoots) {
			return nil, fmt.Errorf("corpus: document table assigns more docs to shard %d than its tree holds (%d)",
				d.Shard, len(sh.docRoots))
		}
		next[i]++
		c.docShard[id] = int32(i)
		c.docLocal[id] = int32(local)
		sh.globalIDs = append(sh.globalIDs, DocID(id))
	}
	for i, sh := range shards {
		if next[i] != len(sh.docRoots) {
			return nil, fmt.Errorf("corpus: shard %d holds %d docs, document table assigns %d",
				shardIdx[i], len(sh.docRoots), next[i])
		}
	}
	return c, nil
}

// NumShards returns the shard count.
func (c *Corpus) NumShards() int { return len(c.shards) }

// NumDocs returns the global document count: the full bundle's table
// length even for a subset corpus, since DocIDs index into it.
func (c *Corpus) NumDocs() int { return len(c.docShard) }

// NumOwnedDocs counts the documents living on this corpus's shards —
// NumDocs for a full corpus, fewer for a shard node opened on a subset of
// the bundle.
func (c *Corpus) NumOwnedDocs() int {
	n := 0
	for _, sh := range c.shards {
		n += len(sh.docRoots)
	}
	return n
}

// Owns reports whether doc lives on one of this corpus's shards — false,
// not a panic, for DocIDs outside the bundle's document table (stale or
// wire-derived IDs). ShardOf and DocRoot must only be called for owned
// documents.
func (c *Corpus) Owns(doc DocID) bool {
	return doc >= 0 && int(doc) < len(c.docShard) && c.docShard[doc] >= 0
}

// Shards exposes the shard list (read-only) for persistence and cache
// administration.
func (c *Corpus) Shards() []*Shard { return c.shards }

// ShardOf returns the shard holding doc.
func (c *Corpus) ShardOf(doc DocID) *Shard { return c.shards[c.docShard[doc]] }

// DocName returns the document's external name (may be empty).
func (c *Corpus) DocName(doc DocID) string { return c.docNames[doc] }

// DocRoot returns the document's root node in its shard's tree.
func (c *Corpus) DocRoot(doc DocID) xmltree.NodeID {
	sh := c.ShardOf(doc)
	return sh.docRoots[c.docLocal[doc]]
}

// DocTable rebuilds the global document table for persistence into a bundle
// manifest.
func (c *Corpus) DocTable() []backend.ManifestDoc {
	docs := make([]backend.ManifestDoc, len(c.docShard))
	for id := range docs {
		docs[id] = backend.ManifestDoc{Shard: int(c.docShard[id]), Name: c.docNames[id]}
	}
	return docs
}

// Close closes every shard backend and returns the first error.
func (c *Corpus) Close() error {
	var first error
	for _, sh := range c.shards {
		if err := sh.be.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// rootLabels collects the labels a result root can carry: the query root's
// label and every renaming target. The query root is always a name
// selector, so only struct labels qualify.
func rootLabels(x *lang.Expanded) []string {
	labels := []string{x.Root.Label}
	for _, r := range x.Root.Renamings {
		labels = append(labels, r.To)
	}
	return labels
}

// filterShards partitions the shards into the ones that can contain a
// result root of x and the pruned rest, using the per-shard summaries.
func (c *Corpus) filterShards(x *lang.Expanded) (active []*Shard, pruned int) {
	labels := rootLabels(x)
	for _, sh := range c.shards {
		ok := false
		for _, l := range labels {
			if sh.summary.ContainsStruct(l) {
				ok = true
				break
			}
		}
		if ok {
			active = append(active, sh)
		} else {
			pruned++
		}
	}
	return active, pruned
}

// Config tunes one corpus evaluation. The zero value is usable: GOMAXPROCS
// shard workers, schema-driven strategy.
type Config struct {
	// Direct selects the direct strategy (full per-shard evaluation with
	// per-shard best-n pruning) instead of the schema-driven k-growing
	// engine.
	Direct bool
	// Auto lets the planner pick the strategy per shard from each
	// shard's own schema statistics and count probes (internal/plan);
	// Direct is ignored when Auto is set. Mixing strategies across
	// shards keeps the ranking bit-identical: either strategy delivers a
	// superset of the shard's part of the global answer into the shared
	// top-n heap.
	Auto bool
	// Parallelism bounds the shard-level worker pool (zero: GOMAXPROCS).
	// It is the only concurrency of a search: each shard's engine runs
	// on the worker that picked the shard up.
	Parallelism int
	// Metrics, when non-nil, accumulates the merged per-shard counters
	// plus the corpus-level Shards/ShardsPruned counts.
	Metrics *exec.Metrics
}
