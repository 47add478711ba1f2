package storage

import (
	"bytes"
	"sort"
)

// Cell layouts.
//
// Leaf cell:   klen uint16 | flags uint8 | key | payload
//
//	flags 0 (inline):   vlen uint16 | value
//	flags 1 (overflow): vlen uint32 | first overflow page id uint32
//
// Branch cell: klen uint16 | key | child page id uint32 | count uint32
//
// count is the number of keys stored in the child's subtree.
const (
	flagInline   = 0
	flagOverflow = 1
)

func nCells(pg *page) int { return int(getU16(pg.data, offNCells)) }

func setNCells(pg *page, n int) { putU16(pg.data, offNCells, uint16(n)) }

func upper(pg *page) int { return int(getU16(pg.data, offUpper)) }

func setUpper(pg *page, u int) { putU16(pg.data, offUpper, uint16(u)) }

// initPage formats pg as an empty leaf or branch page.
func initPage(pg *page, typ byte) {
	pg.data[offType] = typ
	setNCells(pg, 0)
	putU32(pg.data, offLink, 0)
	// Upper is stored mod 64K; PageSize is exactly 4096 so offsets fit.
	setUpper(pg, PageSize)
	// Clear the flag byte and the leftmost-child counter slot.
	for i := offFlags; i < hdrSize; i++ {
		pg.data[i] = 0
	}
}

func cellOffset(pg *page, i int) int {
	return int(getU16(pg.data, hdrSize+2*i))
}

// cellKey returns the key bytes of cell i (valid for leaf and branch cells).
func cellKey(pg *page, i int) []byte {
	off := cellOffset(pg, i)
	klen := int(getU16(pg.data, off))
	return pg.data[off+2+cellKeyPrefix(pg) : off+2+cellKeyPrefix(pg)+klen]
}

// cellKeyPrefix is the number of bytes between the klen field and the key:
// leaf cells have a flags byte there, branch cells do not.
func cellKeyPrefix(pg *page) int {
	if pg.data[offType] == pageLeaf {
		return 1
	}
	return 0
}

// leafCellValue returns the inline value or overflow descriptor of leaf
// cell i: (value, 0, 0) for inline cells, (nil, totalLen, ovfPage) for
// overflowed ones.
func leafCellValue(pg *page, i int) (val []byte, ovfLen uint32, ovfPage uint32) {
	off := cellOffset(pg, i)
	klen := int(getU16(pg.data, off))
	flags := pg.data[off+2]
	body := off + 3 + klen
	if flags == flagInline {
		vlen := int(getU16(pg.data, body))
		return pg.data[body+2 : body+2+vlen], 0, 0
	}
	return nil, getU32(pg.data, body), getU32(pg.data, body+4)
}

// branchChild returns the child pointer of branch cell i.
func branchChild(pg *page, i int) uint32 {
	off := cellOffset(pg, i)
	klen := int(getU16(pg.data, off))
	return getU32(pg.data, off+2+klen)
}

// leftChild returns the leftmost child of a branch page.
func leftChild(pg *page) uint32 { return getU32(pg.data, offLink) }

func setLeftChild(pg *page, c uint32) { putU32(pg.data, offLink, c) }

// leftCount returns the key count of a branch page's leftmost child's
// subtree.
func leftCount(pg *page) uint32 { return getU32(pg.data, offLeftCount) }

func setLeftCount(pg *page, v uint32) { putU32(pg.data, offLeftCount, v) }

// branchCellCount returns the subtree key count of branch cell i.
func branchCellCount(pg *page, i int) uint32 {
	off := cellOffset(pg, i)
	klen := int(getU16(pg.data, off))
	return getU32(pg.data, off+2+klen+4)
}

// nextLeaf returns the next-leaf link of a leaf page.
func nextLeaf(pg *page) uint32 { return getU32(pg.data, offLink) }

func setNextLeaf(pg *page, c uint32) { putU32(pg.data, offLink, c) }

// search returns the index of the first cell whose key is >= key and whether
// an exact match was found.
func search(pg *page, key []byte) (int, bool) {
	n := nCells(pg)
	i := sort.Search(n, func(i int) bool {
		return bytes.Compare(cellKey(pg, i), key) >= 0
	})
	found := i < n && bytes.Equal(cellKey(pg, i), key)
	return i, found
}

// childIndexFor returns the cell index whose subtree contains key, or -1 for
// the leftmost child.
func childIndexFor(pg *page, key []byte) int {
	n := nCells(pg)
	// First cell with key strictly greater than the search key; the child
	// to descend into hangs off the previous cell.
	i := sort.Search(n, func(i int) bool {
		return bytes.Compare(cellKey(pg, i), key) > 0
	})
	return i - 1
}

// childAt returns the child page id for the given childIndexFor result.
func childAt(pg *page, idx int) uint32 {
	if idx < 0 {
		return leftChild(pg)
	}
	return branchChild(pg, idx)
}

// freeSpace returns the number of contiguous free bytes available for a new
// cell plus its pointer slot.
func freeSpace(pg *page) int {
	return upper(pg) - (hdrSize + 2*nCells(pg)) - 2
}

// appendCell places cell after the page's last cell. It reports false when
// the page lacks the room.
func appendCell(pg *page, cell []byte) bool {
	if freeSpace(pg) < len(cell) {
		return false
	}
	n := nCells(pg)
	u := upper(pg) - len(cell)
	copy(pg.data[u:], cell)
	setUpper(pg, u)
	putU16(pg.data, hdrSize+2*n, uint16(u))
	setNCells(pg, n+1)
	return true
}

// makeLeafCell builds an inline or overflow leaf cell. ovfPage is used when
// the value spilled to an overflow chain.
func makeLeafCell(key, value []byte, ovfLen uint32, ovfPage uint32) []byte {
	if ovfPage == 0 {
		cell := make([]byte, 3+len(key)+2+len(value))
		putU16(cell, 0, uint16(len(key)))
		cell[2] = flagInline
		copy(cell[3:], key)
		putU16(cell, 3+len(key), uint16(len(value)))
		copy(cell[3+len(key)+2:], value)
		return cell
	}
	cell := make([]byte, 3+len(key)+8)
	putU16(cell, 0, uint16(len(key)))
	cell[2] = flagOverflow
	copy(cell[3:], key)
	putU32(cell, 3+len(key), ovfLen)
	putU32(cell, 3+len(key)+4, ovfPage)
	return cell
}

// makeBranchCell builds a branch cell: the separator key, the child, and the
// child's subtree key count.
func makeBranchCell(key []byte, child uint32, count uint32) []byte {
	cell := make([]byte, 2+len(key)+4+4)
	putU16(cell, 0, uint16(len(key)))
	copy(cell[2:], key)
	putU32(cell, 2+len(key), child)
	putU32(cell, 2+len(key)+4, count)
	return cell
}
