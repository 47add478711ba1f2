// Package cost implements the transformation cost model of the paper
// (Definition 6 and the Section 6 example).
//
// Every basic query transformation — inserting a node, deleting an inner node
// or a leaf, renaming a label — carries a non-negative cost. Following the
// paper, costs are bound to the labels of the involved nodes: inserting a
// node labeled l costs InsertCost(l), deleting a query node labeled l costs
// DeleteCost(l), and renaming l to l' costs RenameCost(l, l').
//
// The paper's experimental convention is the default here: all insert costs
// are 1 unless overridden, and all delete and rename costs are infinite
// unless explicitly listed.
package cost

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Cost is a non-negative transformation cost. Infinite costs use the Inf
// sentinel; use Add for saturating addition.
type Cost int64

// Inf represents an infinite (forbidden) transformation. It is chosen so
// that a long chain of additions cannot overflow int64.
const Inf Cost = math.MaxInt64 / 4

// IsInf reports whether c is infinite (at or beyond the Inf sentinel).
func IsInf(c Cost) bool { return c >= Inf }

// Add returns a+b, saturating at Inf.
func Add(a, b Cost) Cost {
	if IsInf(a) || IsInf(b) {
		return Inf
	}
	return a + b
}

// Min returns the smaller of a and b.
func Min(a, b Cost) Cost {
	if a < b {
		return a
	}
	return b
}

// Kind distinguishes struct labels (element and attribute names) from text
// labels (terms). Renamings never cross kinds: an element name can only be
// renamed to an element name, a term only to a term.
type Kind uint8

const (
	// Struct labels elements and attributes.
	Struct Kind = iota
	// Text labels terms (single words of element text or attribute values).
	Text
)

// String returns "struct" or "text".
func (k Kind) String() string {
	if k == Text {
		return "text"
	}
	return "struct"
}

// Renaming is one allowed label substitution together with its cost.
type Renaming struct {
	To   string
	Cost Cost
}

type labelKey struct {
	label string
	kind  Kind
}

// Model assigns costs to basic transformations. The zero value is not usable;
// call NewModel. Model is not safe for concurrent mutation; concurrent reads
// are safe once construction is complete.
type Model struct {
	defaultInsert Cost
	insert        map[labelKey]Cost
	delete        map[labelKey]Cost
	rename        map[labelKey][]Renaming
}

// NewModel returns a model with the paper's default convention:
// every insert costs 1, every delete and rename is infinite.
func NewModel() *Model {
	return &Model{
		defaultInsert: 1,
		insert:        make(map[labelKey]Cost),
		delete:        make(map[labelKey]Cost),
		rename:        make(map[labelKey][]Renaming),
	}
}

// SetDefaultInsert changes the insert cost used for labels without an
// explicit entry.
func (m *Model) SetDefaultInsert(c Cost) { m.defaultInsert = c }

// DefaultInsert returns the insert cost used for unlisted labels.
func (m *Model) DefaultInsert() Cost { return m.defaultInsert }

// SetInsert sets the cost of inserting a node with the given label and kind.
func (m *Model) SetInsert(label string, kind Kind, c Cost) {
	m.insert[labelKey{label, kind}] = c
}

// SetDelete sets the cost of deleting a query node with the given label.
func (m *Model) SetDelete(label string, kind Kind, c Cost) {
	m.delete[labelKey{label, kind}] = c
}

// AddRenaming allows renaming from → to at cost c. Duplicate targets keep
// the cheapest cost. Each label's renamings are kept sorted by (cost,
// target), so that Renamings only reads and concurrent queries may share
// one model.
func (m *Model) AddRenaming(from, to string, kind Kind, c Cost) {
	k := labelKey{from, kind}
	rs := m.rename[k]
	if i := slices.IndexFunc(rs, func(r Renaming) bool { return r.To == to }); i >= 0 {
		if c >= rs[i].Cost {
			return
		}
		rs = slices.Delete(rs, i, i+1)
	}
	r := Renaming{To: to, Cost: c}
	i, _ := slices.BinarySearchFunc(rs, r, compareRenamings)
	m.rename[k] = slices.Insert(rs, i, r)
}

// compareRenamings orders renamings by (cost, target).
func compareRenamings(a, b Renaming) int {
	if a.Cost != b.Cost {
		return cmp.Compare(a.Cost, b.Cost)
	}
	return strings.Compare(a.To, b.To)
}

// InsertCost returns the cost of inserting a node labeled label.
func (m *Model) InsertCost(label string, kind Kind) Cost {
	if c, ok := m.insert[labelKey{label, kind}]; ok {
		return c
	}
	return m.defaultInsert
}

// DeleteCost returns the cost of deleting a query node labeled label;
// Inf if deletion is not allowed.
func (m *Model) DeleteCost(label string, kind Kind) Cost {
	if c, ok := m.delete[labelKey{label, kind}]; ok {
		return c
	}
	return Inf
}

// Renamings returns the allowed renamings of label, sorted by (cost, target)
// for deterministic evaluation. It only reads the model, so concurrent
// calls are safe. The returned slice must not be modified.
func (m *Model) Renamings(label string, kind Kind) []Renaming {
	return m.rename[labelKey{label, kind}]
}

// RenameCost returns the cost of renaming from → to, or Inf if not allowed.
// Renaming a label to itself costs 0.
func (m *Model) RenameCost(from, to string, kind Kind) Cost {
	if from == to {
		return 0
	}
	for _, r := range m.rename[labelKey{from, kind}] {
		if r.To == to {
			return r.Cost
		}
	}
	return Inf
}

// Write serializes the model in the textual format accepted by Parse.
func (m *Model) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "default insert %d\n", m.defaultInsert)
	for _, k := range sortedKeys(m.insert) {
		fmt.Fprintf(bw, "insert %s %s %s\n", k.kind, quoteLabel(k.label), formatCost(m.insert[k]))
	}
	for _, k := range sortedKeys(m.delete) {
		fmt.Fprintf(bw, "delete %s %s %s\n", k.kind, quoteLabel(k.label), formatCost(m.delete[k]))
	}
	renameKeys := make([]labelKey, 0, len(m.rename))
	for k := range m.rename {
		renameKeys = append(renameKeys, k)
	}
	sortKeys(renameKeys)
	for _, k := range renameKeys {
		for _, r := range m.Renamings(k.label, k.kind) {
			fmt.Fprintf(bw, "rename %s %s %s %s\n", k.kind, quoteLabel(k.label), quoteLabel(r.To), formatCost(r.Cost))
		}
	}
	return bw.Flush()
}

func sortedKeys(m map[labelKey]Cost) []labelKey {
	keys := make([]labelKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sortKeys(keys)
	return keys
}

func sortKeys(keys []labelKey) {
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].kind != keys[j].kind {
			return keys[i].kind < keys[j].kind
		}
		return keys[i].label < keys[j].label
	})
}

func quoteLabel(s string) string { return strconv.Quote(s) }

func formatCost(c Cost) string {
	if IsInf(c) {
		return "inf"
	}
	return strconv.FormatInt(int64(c), 10)
}

func parseCost(s string) (Cost, error) {
	if s == "inf" {
		return Inf, nil
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, err
	}
	if v < 0 {
		return 0, fmt.Errorf("negative cost %d", v)
	}
	if Cost(v) > Inf {
		return Inf, nil
	}
	return Cost(v), nil
}

// Parse reads a model from its textual format. Lines are one of
//
//	default insert <cost>
//	insert <kind> <label> <cost>
//	delete <kind> <label> <cost>
//	rename <kind> <from> <to> <cost>
//
// where <kind> is "struct" or "text", labels are Go-quoted strings or bare
// words, and <cost> is a non-negative integer or "inf". Blank lines and lines
// starting with '#' are ignored.
func Parse(r io.Reader) (*Model, error) {
	m := NewModel()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields, err := splitFields(line)
		if err != nil {
			return nil, fmt.Errorf("cost: line %d: %w", lineno, err)
		}
		if err := m.applyLine(fields); err != nil {
			return nil, fmt.Errorf("cost: line %d: %w", lineno, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("cost: %w", err)
	}
	return m, nil
}

func (m *Model) applyLine(fields []string) error {
	switch {
	case len(fields) == 3 && fields[0] == "default" && fields[1] == "insert":
		c, err := parseCost(fields[2])
		if err != nil {
			return err
		}
		m.defaultInsert = c
		return nil
	case len(fields) == 4 && (fields[0] == "insert" || fields[0] == "delete"):
		kind, err := parseKind(fields[1])
		if err != nil {
			return err
		}
		c, err := parseCost(fields[3])
		if err != nil {
			return err
		}
		if fields[0] == "insert" {
			m.SetInsert(fields[2], kind, c)
		} else {
			m.SetDelete(fields[2], kind, c)
		}
		return nil
	case len(fields) == 5 && fields[0] == "rename":
		kind, err := parseKind(fields[1])
		if err != nil {
			return err
		}
		c, err := parseCost(fields[4])
		if err != nil {
			return err
		}
		m.AddRenaming(fields[2], fields[3], kind, c)
		return nil
	}
	return fmt.Errorf("unrecognized directive %q", strings.Join(fields, " "))
}

func parseKind(s string) (Kind, error) {
	switch s {
	case "struct":
		return Struct, nil
	case "text":
		return Text, nil
	}
	return 0, fmt.Errorf("unknown kind %q", s)
}

// splitFields splits a line into whitespace-separated fields where a field
// may be a Go-quoted string.
func splitFields(line string) ([]string, error) {
	var fields []string
	i := 0
	for i < len(line) {
		for i < len(line) && (line[i] == ' ' || line[i] == '\t') {
			i++
		}
		if i >= len(line) {
			break
		}
		if line[i] == '"' {
			// Find the end of the quoted string, honoring escapes.
			j := i + 1
			for j < len(line) {
				if line[j] == '\\' {
					j += 2
					continue
				}
				if line[j] == '"' {
					break
				}
				j++
			}
			if j >= len(line) {
				return nil, fmt.Errorf("unterminated quoted field")
			}
			s, err := strconv.Unquote(line[i : j+1])
			if err != nil {
				return nil, fmt.Errorf("bad quoted field %q: %v", line[i:j+1], err)
			}
			fields = append(fields, s)
			i = j + 1
			continue
		}
		j := i
		for j < len(line) && line[j] != ' ' && line[j] != '\t' {
			j++
		}
		fields = append(fields, line[i:j])
		i = j
	}
	return fields, nil
}
