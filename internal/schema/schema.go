// Package schema implements the structural summary of Section 7.1: a
// DataGuide-like schema tree containing every label-type path of the data
// tree exactly once, the node-class mapping from data nodes to schema nodes,
// and the path-dependent secondary index I_sec (Section 7.3).
//
// Schemata are compacted: all text children of one element class merge into
// a single text class ("sequences of text nodes are merged into a single
// node"), and term labels live only in the indexes — the schema's text index
// maps each term to the text classes containing it, and the secondary index
// stores one posting per (text class, term) pair.
//
// The schema tree carries the same (pre, bound, inscost, pathcost) encoding
// as the data tree, so the adapted algorithm primary of Section 7.2 runs on
// it unchanged in structure. Because node classes preserve labels, types,
// and parent-child relationships, the distance between two schema nodes
// equals the distance between any instance pair (Section 7.3), which is what
// makes second-level queries executable without knowing the inserted nodes.
package schema

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"approxql/internal/cost"
	"approxql/internal/dict"
	"approxql/internal/xmltree"
)

// NodeID identifies a schema node by its preorder number in the schema tree.
type NodeID = int32

// noLabel marks the label field of compacted text classes.
const noLabel dict.ID = -1

// Schema is the structural summary of one data tree.
type Schema struct {
	tree *xmltree.Tree

	// Structure-of-arrays over schema nodes, indexed by preorder number.
	label    []dict.ID // name ID for struct classes; noLabel for text classes
	kind     []cost.Kind
	parent   []NodeID
	bound    []NodeID
	inscost  []cost.Cost
	pathcost []cost.Cost

	// classOf maps each data node to its class (Definition 15).
	classOf []NodeID

	// instances holds the sorted data nodes of each class: the I_sec
	// postings for struct classes.
	instances [][]xmltree.NodeID

	// termInstances holds the path-dependent postings for terms: the
	// sorted text nodes of one class carrying one term.
	termInstances map[termKey][]xmltree.NodeID

	// structIndex is the schema-level I_struct: name → struct classes.
	structIndex map[dict.ID][]NodeID
	// textIndex is the schema-level I_text: term → text classes whose
	// instances contain the term.
	textIndex map[dict.ID][]NodeID

	// structMemo and textMemo cache StructClasses and TextClasses by
	// label, so each label pays for its dictionary lookup once.
	structMemo, textMemo classMemo
}

// classMemo caches label → classes for labels found in the dictionary. It
// is read-mostly: every query of a running system asks for labels it has
// seen before. Absent labels are not cached, so the memo is bounded by the
// dictionary however many distinct labels the queries carry.
type classMemo struct {
	mu sync.Mutex
	m  map[string][]NodeID
}

// classes returns the classes of label: the memo's entry, or on a miss the
// index posting of the label's dictionary ID, which is then cached under a
// copy of label (so the memo never pins the caller's string).
func (cm *classMemo) classes(label string, labels dict.Reader, index map[dict.ID][]NodeID) []NodeID {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	if cs, ok := cm.m[label]; ok {
		return cs
	}
	id := labels.Lookup(label)
	if id == dict.None {
		return nil
	}
	if cm.m == nil {
		cm.m = make(map[string][]NodeID)
	}
	cs := index[id]
	cm.m[strings.Clone(label)] = cs
	return cs
}

type termKey struct {
	class NodeID
	term  dict.ID
}

// trieNode is the temporary structure used while collecting label-type
// paths; it is renumbered into preorder arrays afterwards.
type trieNode struct {
	label     dict.ID
	kind      cost.Kind
	children  map[dict.ID]*trieNode // struct children by name
	textChild *trieNode             // the compacted text class
	order     []*trieNode           // children in first-encounter order
	pre       NodeID
}

// Build constructs the schema of tree in two passes: one to collect the
// trie of label-type paths, one to number it and assign node classes.
func Build(tree *xmltree.Tree) *Schema {
	root := &trieNode{label: tree.LabelID(0), kind: cost.Struct, children: make(map[dict.ID]*trieNode)}
	count := 1

	// Pass 1: walk the data tree, extending the trie. stack[d] is the trie
	// node of the data node currently open at depth d.
	stack := []*trieNode{root}
	n := xmltree.NodeID(tree.Len())
	dataStack := []xmltree.NodeID{0}
	for u := xmltree.NodeID(1); u < n; u++ {
		for tree.Bound(dataStack[len(dataStack)-1]) < u {
			dataStack = dataStack[:len(dataStack)-1]
			stack = stack[:len(stack)-1]
		}
		top := stack[len(stack)-1]
		var tn *trieNode
		if tree.Kind(u) == cost.Text {
			if top.textChild == nil {
				top.textChild = &trieNode{label: noLabel, kind: cost.Text}
				top.order = append(top.order, top.textChild)
				count++
			}
			tn = top.textChild
		} else {
			id := tree.LabelID(u)
			tn = top.children[id]
			if tn == nil {
				tn = &trieNode{label: id, kind: cost.Struct, children: make(map[dict.ID]*trieNode)}
				top.children[id] = tn
				top.order = append(top.order, tn)
				count++
			}
		}
		dataStack = append(dataStack, u)
		stack = append(stack, tn)
	}

	s := &Schema{
		tree:          tree,
		label:         make([]dict.ID, 0, count),
		kind:          make([]cost.Kind, 0, count),
		parent:        make([]NodeID, 0, count),
		bound:         make([]NodeID, 0, count),
		inscost:       make([]cost.Cost, 0, count),
		pathcost:      make([]cost.Cost, 0, count),
		classOf:       make([]NodeID, tree.Len()),
		termInstances: make(map[termKey][]xmltree.NodeID),
		structIndex:   make(map[dict.ID][]NodeID),
		textIndex:     make(map[dict.ID][]NodeID),
	}

	// Pass 2a: preorder-number the trie. Insert costs per class come from
	// any instance — they are label-bound, hence identical across
	// instances; the root's cost is filled from the data root below.
	var number func(tn *trieNode, parent NodeID)
	number = func(tn *trieNode, parent NodeID) {
		pre := NodeID(len(s.label))
		tn.pre = pre
		s.label = append(s.label, tn.label)
		s.kind = append(s.kind, tn.kind)
		s.parent = append(s.parent, parent)
		s.bound = append(s.bound, pre)
		s.inscost = append(s.inscost, 0)
		s.pathcost = append(s.pathcost, 0)
		if tn.kind == cost.Struct {
			s.structIndex[tn.label] = append(s.structIndex[tn.label], pre)
		}
		for _, c := range tn.order {
			number(c, pre)
		}
		s.bound[pre] = NodeID(len(s.label)) - 1
	}
	number(root, -1)

	// Pass 2b: assign classes and collect instances, copying the cost
	// encoding from the first instance of each class.
	s.instances = make([][]xmltree.NodeID, len(s.label))
	stack = stack[:0]
	stack = append(stack, root)
	dataStack = dataStack[:0]
	dataStack = append(dataStack, 0)
	s.classOf[0] = 0
	s.instances[0] = append(s.instances[0], 0)
	for u := xmltree.NodeID(1); u < n; u++ {
		for tree.Bound(dataStack[len(dataStack)-1]) < u {
			dataStack = dataStack[:len(dataStack)-1]
			stack = stack[:len(stack)-1]
		}
		top := stack[len(stack)-1]
		var tn *trieNode
		if tree.Kind(u) == cost.Text {
			tn = top.textChild
			key := termKey{tn.pre, tree.LabelID(u)}
			if len(s.termInstances[key]) == 0 {
				s.textIndex[tree.LabelID(u)] = append(s.textIndex[tree.LabelID(u)], tn.pre)
			}
			s.termInstances[key] = append(s.termInstances[key], u)
		} else {
			tn = top.children[tree.LabelID(u)]
		}
		s.classOf[u] = tn.pre
		s.instances[tn.pre] = append(s.instances[tn.pre], u)
		if s.inscost[tn.pre] == 0 {
			s.inscost[tn.pre] = tree.InsCost(u)
		}
		dataStack = append(dataStack, u)
		stack = append(stack, tn)
	}
	// The textIndex postings were appended in trie-discovery order per
	// term; sort them by schema preorder.
	for id := range s.textIndex {
		sort.Slice(s.textIndex[id], func(i, j int) bool { return s.textIndex[id][i] < s.textIndex[id][j] })
	}
	for id := range s.structIndex {
		sort.Slice(s.structIndex[id], func(i, j int) bool { return s.structIndex[id][i] < s.structIndex[id][j] })
	}
	// Pathcosts top-down.
	s.inscost[0] = tree.InsCost(0)
	for v := NodeID(1); v < NodeID(len(s.label)); v++ {
		p := s.parent[v]
		s.pathcost[v] = cost.Add(s.pathcost[p], s.inscost[p])
	}
	return s
}

// Tree returns the summarized data tree.
func (s *Schema) Tree() *xmltree.Tree { return s.tree }

// Len returns the number of schema nodes.
func (s *Schema) Len() int { return len(s.label) }

// Kind returns the node type of class c.
func (s *Schema) Kind(c NodeID) cost.Kind { return s.kind[c] }

// Label returns the element name of a struct class; text classes have no
// label and return "#text".
func (s *Schema) Label(c NodeID) string {
	if s.kind[c] == cost.Text {
		return "#text"
	}
	return s.tree.Names.String(s.label[c])
}

// Parent returns the parent class, or -1 for the root class.
func (s *Schema) Parent(c NodeID) NodeID { return s.parent[c] }

// Bound returns the largest preorder number in the subtree of class c.
func (s *Schema) Bound(c NodeID) NodeID { return s.bound[c] }

// InsCost returns the insert cost of the class's label.
func (s *Schema) InsCost(c NodeID) cost.Cost { return s.inscost[c] }

// PathCost returns the summed insert costs of the proper ancestors of c.
func (s *Schema) PathCost(c NodeID) cost.Cost { return s.pathcost[c] }

// ClassOf returns the node class of a data node (Definition 15).
func (s *Schema) ClassOf(u xmltree.NodeID) NodeID { return s.classOf[u] }

// StructClasses returns the struct classes whose label is name, sorted by
// preorder: the schema-level I_struct posting.
func (s *Schema) StructClasses(name string) []NodeID {
	return s.structMemo.classes(name, s.tree.Names, s.structIndex)
}

// TextClasses returns the text classes whose instances contain term, sorted
// by preorder: the schema-level I_text posting.
func (s *Schema) TextClasses(term string) []NodeID {
	return s.textMemo.classes(term, s.tree.Terms, s.textIndex)
}

// Instances returns the sorted data nodes of class c: the I_sec posting of
// a struct class (Section 7.3).
func (s *Schema) Instances(c NodeID) []xmltree.NodeID {
	return s.instances[c]
}

// TermInstances returns the sorted text nodes of class c labeled term: the
// path-dependent posting of a (text class, term) key.
func (s *Schema) TermInstances(c NodeID, term string) []xmltree.NodeID {
	id := s.tree.Terms.Lookup(term)
	if id == dict.None {
		return nil
	}
	return s.termInstances[termKey{c, id}]
}

// ForEachTermPosting calls fn once per (text class, term) posting with the
// posting size. Iteration order is unspecified.
func (s *Schema) ForEachTermPosting(fn func(class NodeID, term string, count int)) {
	for key, inst := range s.termInstances {
		fn(key.class, s.tree.Terms.String(key.term), len(inst))
	}
}

// LabelTypePath renders the label-type path of class c (Definition 13).
func (s *Schema) LabelTypePath(c NodeID) string {
	var parts []string
	for v := c; v >= 0; v = s.parent[v] {
		parts = append(parts, s.Label(v))
	}
	out := ""
	for i := len(parts) - 1; i >= 0; i-- {
		if out != "" {
			out += "/"
		}
		out += parts[i]
	}
	return out
}

// Validate checks the schema invariants of Section 7.1 against the data
// tree; it is quadratic in places and intended for tests.
func (s *Schema) Validate() error {
	if s.Len() == 0 {
		return fmt.Errorf("schema: empty")
	}
	// Every data node has exactly one class preserving label, type, and
	// parent-child relationships.
	for u := xmltree.NodeID(0); u < xmltree.NodeID(s.tree.Len()); u++ {
		c := s.classOf[u]
		if c < 0 || int(c) >= s.Len() {
			return fmt.Errorf("schema: node %d has class %d out of range", u, c)
		}
		if s.kind[c] != s.tree.Kind(u) {
			return fmt.Errorf("schema: node %d kind mismatch", u)
		}
		if s.kind[c] == cost.Struct && s.label[c] != s.tree.LabelID(u) {
			return fmt.Errorf("schema: node %d label mismatch", u)
		}
		if p := s.tree.Parent(u); p >= 0 {
			if s.parent[c] != s.classOf[p] {
				return fmt.Errorf("schema: node %d: [parent] != parent([u])", u)
			}
		}
		if s.kind[c] == cost.Struct && s.inscost[c] != s.tree.InsCost(u) {
			return fmt.Errorf("schema: node %d inscost mismatch with class", u)
		}
	}
	// Distances between classes equal distances between instances.
	for u := xmltree.NodeID(0); u < xmltree.NodeID(s.tree.Len()); u++ {
		for v := u + 1; v <= s.tree.Bound(u); v++ {
			cu, cv := s.classOf[u], s.classOf[v]
			if !(cu < cv && s.bound[cu] >= cv) {
				return fmt.Errorf("schema: classes of %d,%d not in ancestor relation", u, v)
			}
			want := s.tree.Distance(u, v)
			got := s.pathcost[cv] - s.pathcost[cu] - s.inscost[cu]
			if got != want {
				return fmt.Errorf("schema: distance([%d],[%d]) = %d, instances have %d", cu, cv, got, want)
			}
		}
	}
	// Instances are sorted and complete.
	total := 0
	for c, inst := range s.instances {
		for i, u := range inst {
			if s.classOf[u] != NodeID(c) {
				return fmt.Errorf("schema: instance %d misfiled in class %d", u, c)
			}
			if i > 0 && inst[i-1] >= u {
				return fmt.Errorf("schema: instances of class %d not ascending", c)
			}
		}
		total += len(inst)
	}
	if total != s.tree.Len() {
		return fmt.Errorf("schema: %d instances for %d nodes", total, s.tree.Len())
	}
	return nil
}

// Stats summarizes schema shape for the experiment reports.
type Stats struct {
	Classes      int // schema nodes
	StructLabels int // distinct element names
	MaxInstances int // s_d: the largest class
	MaxDepth     int
}

// ComputeStats returns summary statistics of the schema.
func (s *Schema) ComputeStats() Stats {
	st := Stats{Classes: s.Len(), StructLabels: len(s.structIndex)}
	for _, inst := range s.instances {
		if len(inst) > st.MaxInstances {
			st.MaxInstances = len(inst)
		}
	}
	for c := NodeID(0); c < NodeID(s.Len()); c++ {
		d := 0
		for v := s.parent[c]; v >= 0; v = s.parent[v] {
			d++
		}
		if d > st.MaxDepth {
			st.MaxDepth = d
		}
	}
	return st
}
