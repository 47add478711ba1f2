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
	pg.dirty = true
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

func setLeftChild(pg *page, c uint32) {
	putU32(pg.data, offLink, c)
	pg.dirty = true
}

// leftCount returns the key count of a branch page's leftmost child's
// subtree.
func leftCount(pg *page) uint32 { return getU32(pg.data, offLeftCount) }

func setLeftCount(pg *page, v uint32) {
	putU32(pg.data, offLeftCount, v)
	pg.dirty = true
}

// branchCellCount returns the subtree key count of branch cell i.
func branchCellCount(pg *page, i int) uint32 {
	off := cellOffset(pg, i)
	klen := int(getU16(pg.data, off))
	return getU32(pg.data, off+2+klen+4)
}

func setBranchCellCount(pg *page, i int, v uint32) {
	off := cellOffset(pg, i)
	klen := int(getU16(pg.data, off))
	putU32(pg.data, off+2+klen+4, v)
	pg.dirty = true
}

// childCount returns the subtree key count for a childIndexFor result.
func childCount(pg *page, idx int) uint32 {
	if idx < 0 {
		return leftCount(pg)
	}
	return branchCellCount(pg, idx)
}

// setChildCount stores the subtree key count for a childIndexFor result.
func setChildCount(pg *page, idx int, v uint32) {
	if idx < 0 {
		setLeftCount(pg, v)
		return
	}
	setBranchCellCount(pg, idx, v)
}

// addChildCount adjusts the subtree key count for a childIndexFor result.
func addChildCount(pg *page, idx int, delta int) {
	setChildCount(pg, idx, uint32(int(childCount(pg, idx))+delta))
}

// subtreeKeys sums a branch page's child counters: the key count of the
// whole subtree rooted at pg.
func subtreeKeys(pg *page) uint32 {
	total := leftCount(pg)
	for i := 0; i < nCells(pg); i++ {
		total += branchCellCount(pg, i)
	}
	return total
}

// nextLeaf returns the next-leaf link of a leaf page.
func nextLeaf(pg *page) uint32 { return getU32(pg.data, offLink) }

func setNextLeaf(pg *page, c uint32) {
	putU32(pg.data, offLink, c)
	pg.dirty = true
}

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

// liveBytes returns the total size of all live cells (excluding pointers).
func liveBytes(pg *page) int {
	total := 0
	for i := 0; i < nCells(pg); i++ {
		total += cellSize(pg, i)
	}
	return total
}

func cellSize(pg *page, i int) int {
	off := cellOffset(pg, i)
	klen := int(getU16(pg.data, off))
	if pg.data[offType] == pageBranch {
		return 2 + klen + 4 + 4
	}
	flags := pg.data[off+2]
	if flags == flagInline {
		vlen := int(getU16(pg.data, off+3+klen))
		return 3 + klen + 2 + vlen
	}
	return 3 + klen + 8
}

// compact rewrites all live cells tightly against the end of the page.
func compact(pg *page) {
	n := nCells(pg)
	cells := make([][]byte, n)
	for i := 0; i < n; i++ {
		off := cellOffset(pg, i)
		sz := cellSize(pg, i)
		c := make([]byte, sz)
		copy(c, pg.data[off:off+sz])
		cells[i] = c
	}
	u := PageSize
	for i := 0; i < n; i++ {
		u -= len(cells[i])
		copy(pg.data[u:], cells[i])
		putU16(pg.data, hdrSize+2*i, uint16(u))
	}
	setUpper(pg, u)
	pg.dirty = true
}

// insertCellAt places cell at index i, shifting pointers right. It reports
// false when the page lacks space even after compaction.
func insertCellAt(pg *page, i int, cell []byte) bool {
	if freeSpace(pg) < len(cell) {
		if hdrSize+2*(nCells(pg)+1)+liveBytes(pg)+len(cell) > PageSize {
			return false
		}
		compact(pg)
		if freeSpace(pg) < len(cell) {
			return false
		}
	}
	n := nCells(pg)
	u := upper(pg) - len(cell)
	copy(pg.data[u:], cell)
	setUpper(pg, u)
	// Shift the pointer array.
	copy(pg.data[hdrSize+2*(i+1):hdrSize+2*(n+1)], pg.data[hdrSize+2*i:hdrSize+2*n])
	putU16(pg.data, hdrSize+2*i, uint16(u))
	setNCells(pg, n+1)
	pg.dirty = true
	return true
}

// deleteCellAt removes the pointer for cell i; the cell bytes become garbage
// reclaimed by the next compact.
func deleteCellAt(pg *page, i int) {
	n := nCells(pg)
	copy(pg.data[hdrSize+2*i:hdrSize+2*(n-1)], pg.data[hdrSize+2*(i+1):hdrSize+2*n])
	setNCells(pg, n-1)
	pg.dirty = true
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
