// Package querygen reproduces the approXQL query generator of Section 8.1:
// it fills query patterns ("name[name[term]]") with names and terms randomly
// selected from the indexes of the data tree, and produces for each query a
// cost table with the renamings of the query selectors, whose labels are
// again selected randomly from the indexes.
package querygen

import (
	"fmt"
	"math/rand"

	"approxql/internal/cost"
	"approxql/internal/lang"
	"approxql/internal/xmltree"
)

// PaperPatterns are the three query patterns of the Section 8.1 table.
var PaperPatterns = []Pattern{
	{
		Name: "pattern1",
		Desc: "simple path query",
		Src:  `name[name[name[term]]]`,
	},
	{
		Name: "pattern2",
		Desc: "small Boolean query",
		Src:  `name[name[term and (term or term)]]`,
	},
	{
		Name: "pattern3",
		Desc: "large Boolean query",
		Src:  `name[name[name[term and term and (term or term)] or name[name[term and term]]] and name]`,
	},
}

// ExtendedPatterns grow the scenario matrix beyond the paper's three
// patterns: deeper paths, wider branching, or-heavy disjunctions, and
// text-heavy conjunctions — the workload shapes the repository benchmark's
// query catalogue (benchmark/README.md) adds, where strategy and cache
// trade-offs only show up under mixes the paper's patterns don't cover.
var ExtendedPatterns = []Pattern{
	{
		Name: "deep",
		Desc: "deep path query",
		Src:  `name[name[name[name[term]]]]`,
	},
	{
		Name: "wide",
		Desc: "wide branching query",
		Src:  `name[name[term] and name[term] and name[term] and name]`,
	},
	{
		Name: "orheavy",
		Desc: "or-heavy Boolean query",
		Src:  `name[name[term or term or term] or name[term or term]]`,
	},
	{
		Name: "textheavy",
		Desc: "text-heavy conjunctive query",
		Src:  `name[term and term and term and term]`,
	},
}

// FindPattern looks a pattern up by name across PaperPatterns and
// ExtendedPatterns.
func FindPattern(name string) (Pattern, bool) {
	for _, p := range PaperPatterns {
		if p.Name == name {
			return p, true
		}
	}
	for _, p := range ExtendedPatterns {
		if p.Name == name {
			return p, true
		}
	}
	return Pattern{}, false
}

// Pattern is a query template: an approXQL query whose selectors are the
// placeholders "name" (an element name) and "term" (a term).
type Pattern struct {
	Name string
	Desc string
	Src  string
}

// Generator fills patterns with labels drawn from a data tree's
// dictionaries. It is deterministic in the seed.
type Generator struct {
	rng   *rand.Rand
	names []string
	terms []string

	// RenameCostRange and DeleteCostRange bound the random costs
	// ([1, N]); both default to 9.
	RenameCostRange int
	DeleteCostRange int
}

// New returns a generator drawing from the tree's element names and terms.
// The super-root label is excluded.
func New(tree *xmltree.Tree, seed int64) (*Generator, error) {
	names := make([]string, 0, tree.Names.Len())
	for _, n := range tree.Names.Strings() {
		if n != xmltree.RootLabel {
			names = append(names, n)
		}
	}
	terms := tree.Terms.Strings()
	if len(names) == 0 || len(terms) == 0 {
		return nil, fmt.Errorf("querygen: tree has no names or no terms")
	}
	return &Generator{
		rng:             rand.New(rand.NewSource(seed)),
		names:           names,
		terms:           terms,
		RenameCostRange: 9,
		DeleteCostRange: 9,
	}, nil
}

// Generated is one produced query together with its cost table (the paper's
// per-query cost file).
type Generated struct {
	Query *lang.Query
	Model *cost.Model
}

// Generate fills the pattern with random labels and builds a cost model
// allowing `renamings` renamings per query label (0, 5, and 10 in the
// paper's test sets) plus finite delete costs for every query label.
func (g *Generator) Generate(p Pattern, renamings int) (*Generated, error) {
	pat, err := lang.Parse(p.Src)
	if err != nil {
		return nil, fmt.Errorf("querygen: pattern %s: %w", p.Name, err)
	}
	root, err := g.fillSelector(pat.Root, true)
	if err != nil {
		return nil, err
	}
	q := &lang.Query{Root: root}
	model := cost.NewModel()
	for _, l := range q.Labels() {
		model.SetDelete(l.Name, l.Kind, cost.Cost(1+g.rng.Intn(g.DeleteCostRange)))
		pool := g.names
		if l.Kind == cost.Text {
			pool = g.terms
		}
		for i := 0; i < renamings; i++ {
			to := pool[g.rng.Intn(len(pool))]
			if to == l.Name {
				continue
			}
			model.AddRenaming(l.Name, to, l.Kind, cost.Cost(1+g.rng.Intn(g.RenameCostRange)))
		}
	}
	return &Generated{Query: q, Model: model}, nil
}

// GenerateSet produces the paper's test-set shape: `count` queries for one
// pattern and renaming level (Section 8.1 uses 10 queries per set).
func (g *Generator) GenerateSet(p Pattern, renamings, count int) ([]*Generated, error) {
	out := make([]*Generated, 0, count)
	for i := 0; i < count; i++ {
		gen, err := g.Generate(p, renamings)
		if err != nil {
			return nil, err
		}
		out = append(out, gen)
	}
	return out, nil
}

func (g *Generator) fillSelector(s *lang.Selector, isRoot bool) (*lang.Selector, error) {
	if s.Name != "name" && s.Name != "term" {
		return nil, fmt.Errorf("querygen: pattern selector %q is not a placeholder", s.Name)
	}
	if s.Name == "term" {
		return nil, fmt.Errorf("querygen: term placeholder cannot have children or be the root")
	}
	out := &lang.Selector{Name: g.names[g.rng.Intn(len(g.names))]}
	if s.Child != nil {
		child, err := g.fillExpr(s.Child)
		if err != nil {
			return nil, err
		}
		out.Child = child
	}
	return out, nil
}

func (g *Generator) fillExpr(e lang.Expr) (lang.Expr, error) {
	switch n := e.(type) {
	case *lang.Selector:
		if n.Name == "term" && n.Child == nil {
			return &lang.Text{Term: g.terms[g.rng.Intn(len(g.terms))]}, nil
		}
		return g.fillSelector(n, false)
	case *lang.Text:
		return nil, fmt.Errorf("querygen: pattern contains a literal text selector %q", n.Term)
	case *lang.And:
		l, err := g.fillExpr(n.Left)
		if err != nil {
			return nil, err
		}
		r, err := g.fillExpr(n.Right)
		if err != nil {
			return nil, err
		}
		return &lang.And{Left: l, Right: r}, nil
	case *lang.Or:
		l, err := g.fillExpr(n.Left)
		if err != nil {
			return nil, err
		}
		r, err := g.fillExpr(n.Right)
		if err != nil {
			return nil, err
		}
		return &lang.Or{Left: l, Right: r}, nil
	}
	return nil, fmt.Errorf("querygen: unsupported pattern node %T", e)
}

// Anchored fills the pattern so that the query is guaranteed to have at
// least one exact result: the labels are drawn from one randomly chosen
// root-to-leaf region of the data tree. This mode goes beyond the paper and
// exists for examples and demos where empty result lists are unhelpful.
func (g *Generator) Anchored(tree *xmltree.Tree, p Pattern) (*Generated, error) {
	// Pick a random text node and use the labels on its path.
	var textNodes []xmltree.NodeID
	for u := xmltree.NodeID(0); u < xmltree.NodeID(tree.Len()); u++ {
		if tree.IsLeaf(u) && tree.Kind(u) == cost.Text {
			textNodes = append(textNodes, u)
		}
	}
	if len(textNodes) == 0 {
		return nil, fmt.Errorf("querygen: tree has no text nodes")
	}
	leaf := textNodes[g.rng.Intn(len(textNodes))]
	var pathNames []string
	for v := tree.Parent(leaf); v > 0; v = tree.Parent(v) {
		pathNames = append([]string{tree.Label(v)}, pathNames...)
	}
	saveNames, saveTerms := g.names, g.terms
	g.names = pathNames
	g.terms = []string{tree.Label(leaf)}
	defer func() { g.names, g.terms = saveNames, saveTerms }()
	return g.Generate(p, 0)
}
