// Package kbest implements the schema-driven query evaluation of Section 7:
// the adapted algorithm primary that enumerates second-level queries
// against the schema in ascending cost order (Section 7.2), and algorithm
// secondary that executes a second-level query against the data tree
// through the path-dependent secondary index (Section 7.3, Figure 5).
// internal/exec pulls from the enumeration until it has enough results
// (Section 7.4).
//
// List entries here differ from the direct evaluation: an entry represents
// one concrete embedding image ("skeleton") in the schema — the paper's
// extension of entries by a label and a pointer set. Because a skeleton
// fully determines which query leaves matched, each entry carries a single
// cost plus a hasLeaf flag.
//
// The paper's algorithm keeps the best k entries per (query subtree, schema
// node) and re-plans with a larger k when k was too small. Here every class
// segment of a list is instead a lazy, cost-ordered stream: a fetch is a
// one-entry segment, bump an offset view, union a k-way merge, a join a
// merge of the ancestor's descendant segments plus the deletion
// alternative, and intersect a walk of the Lawler/Eppstein successor
// frontier over the pair grid. A segment computes an entry only when a
// consumer asks for it, and a merge forces an operand's head only when the
// operand's lower bound reaches the top of its heap, so the query's stream
// of second-level queries (Stream) costs work in proportion to what is
// pulled from it — the any-k ranked enumeration of Tziavelis et al. and
// Eppstein applied to the schema-level algebra.
//
// Planning runs under the allocation discipline of internal/eval: entries,
// segments, their materialized prefixes and every merge heap live in slabs
// of pointer-free values owned by a pooled planner, so a warm enumeration
// allocates little beyond the exported plans of what it yields.
package kbest

import (
	"approxql/internal/cost"
	"approxql/internal/schema"
)

// Entry is an exported second-level query: one embedding image of a query
// subtree in the schema. Class and Bound/PathCost/InsCost describe the
// matched schema node; Label is the matched label (after renaming);
// Pointers reference the skeleton children (Section 7.2). Entries are built
// only for the queries a stream yields; a child shared by several of them
// is one Entry, and Executor caches key on that identity.
type Entry struct {
	Class    schema.NodeID
	Bound    schema.NodeID
	PathCost cost.Cost
	InsCost  cost.Cost

	// Cost is the embedding cost of this skeleton.
	Cost cost.Cost
	// HasLeaf reports whether the skeleton contains at least one
	// query-leaf match (false when every leaf below was deleted).
	HasLeaf bool

	Label string
	Kind  cost.Kind

	// Pointers are the skeleton children; a deleted leaf leaves no
	// pointer. Entries are shared, never mutated after creation.
	Pointers []*Entry
}

// node is a planning entry, a value in planner.nodes addressed by its
// index. Bound, PathCost and InsCost are read from the schema by class, and
// the label and kind from the fetch the node descends from.
type node struct {
	cost  cost.Cost
	class schema.NodeID
	// fetch indexes planner.fetches: the matched label and its kind.
	fetch int32
	// kids and nkids are the skeleton children, a run of node indices in
	// planner.kids. Copies made by bump share the run.
	kids, nkids int32
	hasLeaf     bool
}

// list is a run of segment indices in planner.idx, one per class, sorted by
// ascending class.
type list struct{ off, n int32 }

// segOp is the operation that produces a segment's entries.
type segOp uint8

const (
	opStatic    segOp = iota // fully materialized at creation: a fetch
	opBump                   // the source segment with a cost added
	opUnion                  // a merge of same-class operand segments
	opJoin                   // an ancestor's descendant segments, plus deletion
	opIntersect              // the pairs of two same-class segments
)

// seg is one class segment of a list: a stream of skeletons of one schema
// class in ascending (cost, tie) order. The entries computed so far are a
// linked run of cells; a segment grows by one entry when a consumer reads
// past its last cell. A segment is shared by every list and merge that
// uses it, so each entry is computed once however many consumers read it.
type seg struct {
	// lb is a lower bound on the cost of every entry, known without
	// computing any: the key under which a merge waits to force the head.
	lb    cost.Cost
	class schema.NodeID
	op    segOp
	// done is set once the segment has no further entries.
	done bool
	// first and last are the cells of the computed prefix (-1 when empty).
	first, last int32
	// The operands, by op:
	//   opBump: a is the source segment, b the cell last read from it
	//     (-1 before the first), c the added cost.
	//   opUnion: a, b are the run of operand segments in planner.opnds.
	//   opJoin: a is the ancestor's fetch node, b, n the run of descendant
	//     segments in planner.idx, c the deletion cost (cost.Inf when the
	//     descendant must not be deleted).
	//   opIntersect: a and b are the left and right segments.
	a, b, n int32
	c       cost.Cost
	// heap indexes planner.heaps: the merge state, built on first growth
	// (-1 before).
	heap int32
}

// cell is one computed entry of a segment: a node and the next cell.
type cell struct{ node, next int32 }
