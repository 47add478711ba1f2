package xmltree

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"strings"

	"approxql/internal/cost"
	"approxql/internal/dict"
	"approxql/internal/format"
)

// treeMagic opens a collection file; the digit before the newline is the
// format version. The file stores only the dictionaries (as front-coded
// sorted blocks, dict.Pack, which open without materializing any string),
// node kinds, labels, and bounds; parent links and the cost encoding
// (inscost, pathcost) are reconstructed at load time from the cost model, so
// a stored collection can be re-encoded under different insert costs without
// regeneration.
const (
	treeMagic       = "AXQLTREE2\n"
	treeMagicPrefix = "AXQLTREE"
)

// WriteTo serializes the tree. It implements io.WriterTo.
func (t *Tree) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: bufio.NewWriter(w)}
	if _, err := io.WriteString(cw, treeMagic); err != nil {
		return cw.n, err
	}
	var hdr [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) error {
		n := binary.PutUvarint(hdr[:], v)
		_, err := cw.Write(hdr[:n])
		return err
	}
	if err := writeUvarint(uint64(t.Len())); err != nil {
		return cw.n, err
	}
	for _, d := range []dict.Reader{t.Names, t.Terms} {
		blob := dict.Pack(d.Strings())
		if err := writeUvarint(uint64(len(blob))); err != nil {
			return cw.n, err
		}
		if _, err := cw.Write(blob); err != nil {
			return cw.n, err
		}
	}
	for u := 0; u < t.Len(); u++ {
		kindBit := uint64(0)
		if t.kind[u] == cost.Text {
			kindBit = 1
		}
		// Pack kind into the low bit of the label varint.
		if err := writeUvarint(uint64(t.label[u])<<1 | kindBit); err != nil {
			return cw.n, err
		}
		if err := writeUvarint(uint64(t.bound[u] - NodeID(u))); err != nil {
			return cw.n, err
		}
	}
	return cw.n, cw.w.(*bufio.Writer).Flush()
}

// ReadTree deserializes a tree written by WriteTo, reconstructing parents and
// the cost encoding using model (nil for the default model).
func ReadTree(r io.Reader, model *cost.Model) (*Tree, error) {
	if model == nil {
		model = cost.NewModel()
	}
	br := bufio.NewReader(r)
	magic := make([]byte, len(treeMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("xmltree: reading magic: %w", err)
	}
	if string(magic) != treeMagic {
		if strings.HasPrefix(string(magic), treeMagicPrefix) {
			return nil, &format.VersionError{
				Kind:      "collection file",
				Found:     strings.TrimSpace(string(magic)),
				Supported: strings.TrimSpace(treeMagic),
			}
		}
		return nil, fmt.Errorf("xmltree: bad magic %q", magic)
	}
	n64, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("xmltree: reading node count: %w", err)
	}
	if n64 == 0 || n64 > 1<<31 {
		return nil, fmt.Errorf("xmltree: implausible node count %d", n64)
	}
	n := int(n64)
	readPacked := func(what string) (*dict.Packed, error) {
		bl, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("xmltree: reading %s dictionary size: %w", what, err)
		}
		if bl > 1<<33 {
			return nil, fmt.Errorf("xmltree: implausible %s dictionary size %d", what, bl)
		}
		// The buffer grows with the bytes actually read: a size taken from
		// the header alone must not allocate.
		blob, err := io.ReadAll(io.LimitReader(br, int64(bl)))
		if err == nil && uint64(len(blob)) != bl {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return nil, fmt.Errorf("xmltree: reading %s dictionary: %w", what, err)
		}
		return dict.OpenPacked(blob)
	}
	names, err := readPacked("names")
	if err != nil {
		return nil, err
	}
	terms, err := readPacked("terms")
	if err != nil {
		return nil, err
	}
	t := &Tree{Names: names, Terms: terms}
	for u := 0; u < n; u++ {
		if u == len(t.label) {
			// Like the dictionaries, the per-node arrays grow with the
			// nodes actually read, doubling up to the header's count.
			m := min(max(2*u, 1<<16), n)
			t.label = growTo(t.label, m)
			t.kind = growTo(t.kind, m)
			t.bound = growTo(t.bound, m)
		}
		lk, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("xmltree: node %d label: %w", u, err)
		}
		bd, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("xmltree: node %d bound: %w", u, err)
		}
		// The ID is checked before it is narrowed to int32, where a large
		// one would wrap to a negative index.
		id := lk >> 1
		if lk&1 == 1 {
			t.kind[u] = cost.Text
			if id >= uint64(t.Terms.Len()) {
				return nil, fmt.Errorf("xmltree: node %d term id %d out of range", u, id)
			}
		} else if id >= uint64(t.Names.Len()) {
			return nil, fmt.Errorf("xmltree: node %d name id %d out of range", u, id)
		}
		t.label[u] = int32(id)
		bound := NodeID(u) + NodeID(bd)
		if bound < NodeID(u) || bound >= NodeID(n) {
			return nil, fmt.Errorf("xmltree: node %d bound %d out of range", u, bound)
		}
		t.bound[u] = bound
	}
	t.parent = make([]NodeID, n)
	t.inscost = make([]cost.Cost, n)
	t.pathcost = make([]cost.Cost, n)
	// Reconstruct parents from the pre/bound encoding with an ancestor
	// stack, and rebuild the cost encoding from the model. Insert costs
	// depend only on the label, so they are resolved once per name ID
	// instead of once per node (String on a packed dictionary front-decodes
	// part of a block and allocates).
	insOf := labelCostFunc(t.Names, model)
	t.parent[0] = -1
	t.pathcost[0] = 0
	t.inscost[0] = model.InsertCost(RootLabel, cost.Struct)
	stack := []NodeID{0}
	for u := NodeID(1); u < NodeID(n); u++ {
		for t.bound[stack[len(stack)-1]] < u {
			stack = stack[:len(stack)-1]
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmltree: node %d has no ancestor", u)
			}
		}
		p := stack[len(stack)-1]
		t.parent[u] = p
		if t.kind[u] == cost.Struct {
			t.inscost[u] = insOf(t.label[u])
		}
		t.pathcost[u] = cost.Add(t.pathcost[p], t.inscost[p])
		if t.bound[u] > u {
			stack = append(stack, u)
		}
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// growTo extends s to length m with zero values.
func growTo[T any](s []T, m int) []T {
	return append(s, make([]T, m-len(s))...)
}

// Reencode returns a copy of t whose inscost/pathcost encoding uses model.
// The structural arrays are shared with t.
func (t *Tree) Reencode(model *cost.Model) *Tree {
	if model == nil {
		model = cost.NewModel()
	}
	n := t.Len()
	nt := &Tree{
		Names:    t.Names,
		Terms:    t.Terms,
		label:    t.label,
		kind:     t.kind,
		parent:   t.parent,
		bound:    t.bound,
		inscost:  make([]cost.Cost, n),
		pathcost: make([]cost.Cost, n),
	}
	insOf := labelCostFunc(t.Names, model)
	nt.inscost[0] = model.InsertCost(RootLabel, cost.Struct)
	for u := 1; u < n; u++ {
		if t.kind[u] == cost.Struct {
			nt.inscost[u] = insOf(t.label[u])
		}
		p := t.parent[u]
		nt.pathcost[u] = cost.Add(nt.pathcost[p], nt.inscost[p])
	}
	return nt
}

// labelCostFunc returns a per-name-ID struct insert cost resolver that asks
// the model at most once per distinct label.
func labelCostFunc(names dict.Reader, model *cost.Model) func(dict.ID) cost.Cost {
	memo := make([]cost.Cost, names.Len())
	seen := make([]bool, names.Len())
	return func(id dict.ID) cost.Cost {
		if !seen[id] {
			memo[id] = model.InsertCost(names.String(id), cost.Struct)
			seen[id] = true
		}
		return memo[id]
	}
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
