package storage

import (
	"bytes"
	"errors"
	"fmt"
)

// ErrKeyOrder reports a Put whose key is not above the key put before it.
var ErrKeyOrder = errors.New("storage: keys must be put in strictly ascending order")

// ErrReadOnly reports a Put on a store that no longer accepts one: a store
// opened ReadOnly or over an existing file, or one that has been read.
var ErrReadOnly = errors.New("storage: store is read-only; a store is written once, by Puts into a fresh file before its first read")

// builder writes a fresh tree bottom-up from keys that arrive in ascending
// order. Cells fill the current leaf until the next one does not fit; every
// finished page hands its childRef to the branch page being filled one
// level up, which is finished the same way when it is full. No page is
// written twice.
type builder struct {
	pager *pager
	last  []byte // the last key put; nil before the first
	leaf  *page  // the leaf being filled; nil before the first key
	first []byte // the first key of leaf
	// levels holds, per branch level above the leaves, the children of the
	// page being filled there.
	levels []*level
}

// childRef is a finished page as its parent sees it.
type childRef struct {
	first []byte // the subtree's smallest key: the separator in front of it
	id    uint32
	keys  uint32 // the subtree's key count
}

// level is the branch page being filled at one level: refs[0] becomes its
// leftmost child, every later ref a cell.
type level struct {
	refs []childRef
	size int // page bytes the cells of refs[1:] take, pointers included
}

// put appends (key, value). It checks the order before it writes anything,
// so a rejected Put leaves the build as it was.
func (b *builder) put(key, value []byte) error {
	if b.last != nil && bytes.Compare(key, b.last) <= 0 {
		return fmt.Errorf("%w: %q after %q", ErrKeyOrder, key, b.last)
	}
	cell, err := b.valueCell(key, value)
	if err != nil {
		return err
	}
	if b.leaf == nil || !appendCell(b.leaf, cell) {
		if err := b.startLeaf(key); err != nil {
			return err
		}
		appendCell(b.leaf, cell) // maxInlineCell guarantees the fit
	}
	b.last = append(b.last[:0], key...)
	return nil
}

// valueCell builds the leaf cell for (key, value), spilling a large value
// into an overflow chain.
func (b *builder) valueCell(key, value []byte) ([]byte, error) {
	if 3+len(key)+2+len(value) <= maxInlineCell {
		return makeLeafCell(key, value, 0, 0), nil
	}
	first, err := b.writeOverflow(value)
	if err != nil {
		return nil, err
	}
	return makeLeafCell(key, nil, uint32(len(value)), first), nil
}

// writeOverflow stores value in a chain of consecutive overflow pages and
// returns the first page id.
func (b *builder) writeOverflow(value []byte) (uint32, error) {
	first := b.pager.nextID
	for off := 0; off < len(value); off += ovfCapacity {
		pg := b.newPage()
		pg.data[offType] = pageOverflow
		end := min(off+ovfCapacity, len(value))
		putU16(pg.data, ovfOffLen, uint16(end-off))
		copy(pg.data[ovfHdrSize:], value[off:end])
		if end < len(value) {
			putU32(pg.data, ovfOffNext, pg.id+1)
		}
		if err := b.pager.write(pg); err != nil {
			return 0, err
		}
	}
	return first, nil
}

func (b *builder) newPage() *page {
	return &page{id: b.pager.allocate(), data: make([]byte, PageSize)}
}

// startLeaf opens the leaf whose first key is first, after linking the
// current one to it and handing it to the level above.
func (b *builder) startLeaf(first []byte) error {
	next := b.newPage()
	initPage(next, pageLeaf)
	if b.leaf != nil {
		setNextLeaf(b.leaf, next.id)
		ref, err := b.writeLeaf()
		if err == nil {
			err = b.push(0, ref)
		}
		if err != nil {
			return err
		}
	}
	b.leaf, b.first = next, bytes.Clone(first)
	return nil
}

// writeLeaf writes the current leaf and returns its childRef.
func (b *builder) writeLeaf() (childRef, error) {
	return childRef{b.first, b.leaf.id, uint32(nCells(b.leaf))}, b.pager.write(b.leaf)
}

// push adds ref as the next child of the branch page being filled at level
// l, 0 being the level right above the leaves. A page without room for
// ref's cell is finished first, minus its last child, which becomes the
// next page's leftmost: every branch page keeps at least one separator.
func (b *builder) push(l int, ref childRef) error {
	if l == len(b.levels) {
		b.levels = append(b.levels, &level{})
	}
	lv := b.levels[l]
	// A branch cell is klen, key, child and count, plus its pointer.
	need := 2 + 2 + len(ref.first) + 4 + 4
	if len(lv.refs) > 0 && hdrSize+lv.size+need > PageSize {
		n := len(lv.refs) - 1
		full, err := b.writeBranch(lv.refs[:n])
		if err != nil {
			return err
		}
		if err := b.push(l+1, full); err != nil {
			return err
		}
		lv.refs, lv.size = append(lv.refs[:0], lv.refs[n]), 0
	}
	if len(lv.refs) > 0 {
		lv.size += need
	}
	lv.refs = append(lv.refs, ref)
	return nil
}

// writeBranch writes the branch page over refs and returns its childRef.
func (b *builder) writeBranch(refs []childRef) (childRef, error) {
	pg := b.newPage()
	initPage(pg, pageBranch)
	pg.data[offFlags] |= pageFlagCounted
	setLeftChild(pg, refs[0].id)
	setLeftCount(pg, refs[0].keys)
	keys := refs[0].keys
	for _, r := range refs[1:] {
		if !appendCell(pg, makeBranchCell(r.first, r.id, r.keys)) {
			return childRef{}, corruptf("branch cells overflow page %d", pg.id)
		}
		keys += r.keys
	}
	return childRef{refs[0].first, pg.id, keys}, b.pager.write(pg)
}

// finish writes the last leaf and then, bottom-up, the page being filled at
// every level; the last page written is the root. A store without keys is
// a single empty leaf.
func (b *builder) finish() (uint32, error) {
	if b.leaf == nil {
		if err := b.startLeaf(nil); err != nil {
			return 0, err
		}
	}
	top, err := b.writeLeaf()
	if err != nil {
		return 0, err
	}
	for l := 0; l < len(b.levels); l++ {
		if err := b.push(l, top); err != nil {
			return 0, err
		}
		if top, err = b.writeBranch(b.levels[l].refs); err != nil {
			return 0, err
		}
	}
	return top.id, nil
}
