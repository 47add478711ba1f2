// Package kbest implements the schema-driven query evaluation of Section 7:
// the adapted algorithm primary that finds the best k second-level queries
// against the schema (Section 7.2), algorithm secondary that executes a
// second-level query against the data tree through the path-dependent
// secondary index (Section 7.3, Figure 5), and the PlanBound termination
// bound of the incremental best-n loop (Section 7.4, Figure 6), which
// internal/exec runs.
//
// List entries here differ from the direct evaluation: an entry represents
// one concrete embedding image ("skeleton") in the schema — the paper's
// extension of entries by a label and a pointer set. Because a skeleton
// fully determines which query leaves matched, each entry carries a single
// cost plus a hasLeaf flag; a segment (the run of entries for one schema
// node, sorted by cost) keeps both the k cheapest entries overall and the k
// cheapest with a leaf match, which preserves exactness under the
// keep-one-leaf rule of Section 6.5.
//
// Planning runs under the allocation discipline of internal/eval: entries
// are pointer-free values in one slab, pointer sets and lists are int32
// index runs in two more, and all of it belongs to a pooled planner, so a
// warm planning round allocates only the exported plans of its survivors.
package kbest

import (
	"approxql/internal/cost"
	"approxql/internal/schema"
)

// Entry is an exported second-level query: one embedding image of a query
// subtree in the schema. Class and Bound/PathCost/InsCost describe the
// matched schema node; Label is the matched label (after renaming);
// Pointers reference the skeleton children (Section 7.2). SecondLevel
// builds Entries only for the queries it returns; a child shared by several
// of them is one Entry, and Executor caches key on that identity.
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
// index. The index breaks cost ties: operations append new nodes in
// creation order, or, for joins and intersects, their kept candidates in
// (cost, creation) order, so equal-cost nodes keep their creation order.
// Bound, PathCost and InsCost are read from the schema by class, and the
// label and kind from the fetch the node descends from.
type node struct {
	cost  cost.Cost
	class schema.NodeID
	// fetch indexes planner.fetches: the matched label and its kind.
	fetch int32
	// kids and nkids are the skeleton children, a run of node indices in
	// planner.kids. Copies made by bump and markLeaf share the run.
	kids, nkids int32
	hasLeaf     bool
}

// list is a run of node indices in planner.idx, sorted by ascending class;
// the nodes of one class form a segment sorted by ascending (cost, index).
type list struct{ off, n int32 }

// capper streams the capping rule of a segment: offered entries in
// ascending (cost, sequence) order, it keeps the k cheapest plus the k
// cheapest with a leaf match, and ends the segment at the first infinite
// cost.
type capper struct{ k, kept, leaves int }

// take reports whether an entry with cost c and leaf flag leaf is kept,
// and whether any later entry of the segment can still be.
func (cp *capper) take(c cost.Cost, leaf bool) (keep, more bool) {
	if cost.IsInf(c) {
		return false, false
	}
	if cp.kept < cp.k {
		cp.kept++
		if leaf {
			cp.leaves++
		}
		return true, true
	}
	if cp.leaves >= cp.k {
		return false, false
	}
	if leaf {
		cp.leaves++
	}
	return leaf, cp.leaves < cp.k
}

// segEnd returns the end of the class segment of ix starting at i.
func (p *planner) segEnd(ix []int32, i int) int {
	c := p.nodes[ix[i]].class
	j := i + 1
	for j < len(ix) && p.nodes[ix[j]].class == c {
		j++
	}
	return j
}
