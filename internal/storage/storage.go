// Package storage implements a small embedded key-value store: a page-based
// B+tree with variable-length keys and values, overflow-page chains for
// large values, an LRU page cache, and single-file persistence.
//
// It plays the role Berkeley DB plays in the paper's C++ system: the
// persistent backing store for the structural and textual indexes (I_struct,
// I_text) and the path-dependent secondary index (I_sec). The query
// algorithms only require sorted key access and range scans, which a B+tree
// provides.
//
// A store is written once, the way the paper's indexes are: bulk
// construction, then query workloads. Keys are put in ascending order and
// packed into full leaves; each finished page hands its first key, page id
// and subtree key count to the branch page being filled above it, and the
// first read closes the right spine. Nothing is ever updated in place,
// split, or freed.
//
// Concurrency: all operations are serialized by an internal mutex, so a DB
// may be shared between goroutines.
package storage

import (
	"errors"
	"fmt"
)

// PageSize is the fixed on-disk page size.
const PageSize = 4096

// MaxKeyLen bounds key length so that several cells fit into every page.
const MaxKeyLen = 512

// Errors returned by the store.
var (
	ErrKeyTooLarge = errors.New("storage: key exceeds MaxKeyLen")
	ErrClosed      = errors.New("storage: database is closed")
	ErrCorrupt     = errors.New("storage: file is corrupt")
)

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// Page types.
const (
	pageMeta     = 0
	pageBranch   = 1
	pageLeaf     = 2
	pageOverflow = 3
)

// Common page header layout (branch and leaf pages):
//
//	[0]     page type
//	[1:3]   number of cells (uint16)
//	[3:7]   leaf: next-leaf page id; branch: leftmost child page id
//	[7:9]   upper: offset where cell content begins (cells grow downward)
//	[9]     flags (bit 0, set on every branch page: cells carry subtree counters)
//	[10:14] branch: key count of the leftmost child's subtree
//	[14:16] reserved
//	[16:..] cell pointer array (uint16 offsets, sorted by key)
//
// Overflow page layout:
//
//	[0]    page type
//	[1:5]  next overflow page id (0 = none)
//	[5:7]  data length (uint16)
//	[7:..] data
const (
	hdrSize      = 16
	offType      = 0
	offNCells    = 1
	offLink      = 3
	offUpper     = 7
	offFlags     = 9
	offLeftCount = 10
	ovfHdrSize   = 7
	ovfOffNext   = 1
	ovfOffLen    = 5
	ovfCapacity  = PageSize - ovfHdrSize
	branchFanout = 4 // minimum cells per branch page the layout must allow
)

// pageFlagCounted marks a branch page whose cells carry a trailing uint32
// subtree key count. Every branch page has it set; Check rejects one without.
const pageFlagCounted = 1

// maxInlineCell is the largest cell stored inline in a leaf; larger values
// spill to overflow pages. Sized so at least four cells fit per page.
const maxInlineCell = (PageSize - hdrSize - 2*branchFanout) / branchFanout
