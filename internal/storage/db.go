package storage

import (
	"fmt"
	"os"
	"strings"
	"sync"

	"approxql/internal/format"
)

// metaMagic opens the meta page. Its last two bytes are the layout version:
// 02 files maintain per-subtree key counters on every branch page.
const (
	metaMagic       = "AXQLBT02"
	metaMagicPrefix = "AXQLBT"
)

// DB is an embedded B+tree key-value store. Open one with Open; a DB with
// an empty path lives entirely in memory.
type DB struct {
	mu       sync.Mutex
	pager    *pager
	file     *os.File
	root     uint32
	keys     uint64
	readonly bool
	closed   bool
	mem      []byte // read-only mapping of the file; nil in pager mode
}

// Options configure Open.
type Options struct {
	// CachePages is the page-cache capacity for file-backed databases.
	// Zero means a default of 4096 pages (16 MiB).
	CachePages int
	// ReadOnly opens the file without write access.
	ReadOnly bool
	// MMap memory-maps the file and serves reads zero-copy out of the
	// mapping, with no page cache and no per-page allocation. It requires
	// ReadOnly and a non-empty file-backed database; when those conditions
	// do not hold, or the platform lacks mmap support, Open silently falls
	// back to the pager read path (check MMapped to see which one is live).
	// Values returned by Get, ValueHeader, and cursors then alias the
	// mapping and stay valid until Close.
	MMap bool
}

// Open opens (or creates) the database at path. An empty path creates a
// purely in-memory database.
func Open(path string, opts *Options) (*DB, error) {
	if opts == nil {
		opts = &Options{}
	}
	cache := opts.CachePages
	if cache <= 0 {
		cache = 4096
	}
	db := &DB{}
	if path == "" {
		db.pager = newPager(nil, cache)
		return db, db.initEmpty()
	}
	flag := os.O_RDWR | os.O_CREATE
	if opts.ReadOnly {
		flag = os.O_RDONLY
	}
	f, err := os.OpenFile(path, flag, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	db.file = f
	db.readonly = opts.ReadOnly
	db.pager = newPager(f, cache)
	if st.Size() == 0 {
		if err := db.initEmpty(); err != nil {
			f.Close()
			return nil, err
		}
		if err := db.sync(); err != nil {
			f.Close()
			return nil, err
		}
		return db, nil
	}
	if st.Size()%PageSize != 0 {
		f.Close()
		return nil, corruptf("file size %d is not a multiple of the page size", st.Size())
	}
	if err := db.readMeta(st.Size() / PageSize); err != nil {
		f.Close()
		return nil, err
	}
	if opts.MMap && opts.ReadOnly {
		// Graceful fallback: mmap failure (platform, filesystem, or an
		// unmappable size) leaves the pager path fully functional.
		if mem, err := mmapFile(f, st.Size()); err == nil {
			db.mem = mem
			db.pager.setupMmap(mem)
		}
	}
	return db, nil
}

// MMapped reports whether reads are served zero-copy out of a memory
// mapping of the file (Options.MMap honored) rather than through the
// page cache.
func (db *DB) MMapped() bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.mem != nil
}

func (db *DB) initEmpty() error {
	root, err := db.pager.allocate()
	if err != nil {
		return err
	}
	initPage(root, pageLeaf)
	db.root = root.id
	return nil
}

func (db *DB) readMeta(pageCount int64) error {
	meta := make([]byte, PageSize)
	if _, err := db.file.ReadAt(meta, 0); err != nil {
		return err
	}
	if magic := string(meta[:len(metaMagic)]); magic != metaMagic {
		if strings.HasPrefix(magic, metaMagicPrefix) {
			return &format.VersionError{Kind: "B+tree file", Found: magic, Supported: metaMagic}
		}
		return corruptf("bad magic %q", magic)
	}
	db.root = getU32(meta, 8)
	db.pager.freeHead = getU32(meta, 12)
	db.pager.nextID = getU32(meta, 16)
	db.keys = getU64(meta, 24)
	if int64(db.pager.nextID) != pageCount {
		return corruptf("meta page count %d, file has %d pages", db.pager.nextID, pageCount)
	}
	if db.root == 0 || db.root >= db.pager.nextID {
		return corruptf("meta root %d out of range", db.root)
	}
	return nil
}

func (db *DB) writeMeta() error {
	meta := make([]byte, PageSize)
	copy(meta, metaMagic)
	putU32(meta, 8, db.root)
	putU32(meta, 12, db.pager.freeHead)
	putU32(meta, 16, db.pager.nextID)
	putU64(meta, 24, db.keys)
	_, err := db.file.WriteAt(meta, 0)
	return err
}

func (db *DB) sync() error {
	if db.file == nil || db.readonly {
		return nil
	}
	if err := db.pager.flush(); err != nil {
		return err
	}
	if err := db.writeMeta(); err != nil {
		return err
	}
	return db.file.Sync()
}

// Sync writes all buffered state to disk.
func (db *DB) Sync() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	return db.sync()
}

// Close syncs and closes the database. The DB is unusable afterwards.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	db.closed = true
	if db.file == nil {
		return nil
	}
	if db.mem != nil {
		if err := munmapFile(db.mem); err != nil {
			db.file.Close()
			return err
		}
		db.mem = nil
	}
	if err := db.sync(); err != nil {
		db.file.Close()
		return err
	}
	return db.file.Close()
}

// Len returns the number of stored keys.
func (db *DB) Len() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return int(db.keys)
}

// PageOps returns the cumulative number of logical page accesses the
// database has performed, cache hits included. Tests pin the asymptotic
// cost of count and rank operations with deltas of this counter.
func (db *DB) PageOps() uint64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.pager.reads
}

// PageStats returns the cumulative logical page accesses (cache hits
// included) and cache evictions. Memory-mapped databases never evict.
func (db *DB) PageStats() (reads, evictions uint64) {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.pager.reads, db.pager.evicts
}

// Get returns the value stored under key and whether it exists. The returned
// slice is a copy and may be retained — except on a memory-mapped database
// (Options.MMap), where inline values alias the mapping and stay valid only
// until Close.
func (db *DB) Get(key []byte) ([]byte, bool, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil, false, ErrClosed
	}
	pg, err := db.findLeaf(key)
	if err != nil {
		return nil, false, err
	}
	i, found := search(pg, key)
	if !found {
		return nil, false, db.pager.trim()
	}
	val, err := db.readValue(pg, i)
	if err != nil {
		return nil, false, err
	}
	return val, true, db.pager.trim()
}

// Has reports whether key exists.
func (db *DB) Has(key []byte) (bool, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return false, ErrClosed
	}
	pg, err := db.findLeaf(key)
	if err != nil {
		return false, err
	}
	_, found := search(pg, key)
	return found, db.pager.trim()
}

// ErrReadOnly reports a write to a database opened with Options.ReadOnly.
var ErrReadOnly = errReadOnly{}

type errReadOnly struct{}

func (errReadOnly) Error() string { return "storage: database is read-only" }

// Put stores value under key, replacing any existing value.
func (db *DB) Put(key, value []byte) error {
	if len(key) > MaxKeyLen {
		return ErrKeyTooLarge
	}
	if len(key) == 0 {
		return fmt.Errorf("storage: empty key")
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	if db.readonly {
		return ErrReadOnly
	}
	split, _, err := db.insert(db.root, key, value)
	if err != nil {
		return err
	}
	if split != nil {
		// The root split: grow the tree by one level.
		newRoot, err := db.pager.allocate()
		if err != nil {
			return err
		}
		initBranch(newRoot)
		setLeftChild(newRoot, db.root)
		setLeftCount(newRoot, split.leftKeys)
		if !insertCellAt(newRoot, 0, makeBranchCell(split.key, split.right, split.rightKeys)) {
			return corruptf("separator does not fit into an empty root")
		}
		db.root = newRoot.id
	}
	return db.pager.trim()
}

// initBranch formats pg as an empty branch page, tagged as carrying subtree
// counters.
func initBranch(pg *page) {
	initPage(pg, pageBranch)
	pg.data[offFlags] |= pageFlagCounted
}

// Delete removes key. It reports whether the key existed.
func (db *DB) Delete(key []byte) (bool, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return false, ErrClosed
	}
	if db.readonly {
		return false, ErrReadOnly
	}
	// Record the descent so subtree counters can be decremented after a
	// successful delete.
	type step struct {
		pg  *page
		idx int
	}
	var path []step
	pg, err := db.pager.get(db.root)
	if err != nil {
		return false, err
	}
	for pg.data[offType] == pageBranch {
		idx := childIndexFor(pg, key)
		path = append(path, step{pg, idx})
		pg, err = db.pager.get(childAt(pg, idx))
		if err != nil {
			return false, err
		}
	}
	if pg.data[offType] != pageLeaf {
		return false, corruptf("page %d: expected leaf, got type %d", pg.id, pg.data[offType])
	}
	i, found := search(pg, key)
	if !found {
		return false, db.pager.trim()
	}
	if err := db.freeCellOverflow(pg, i); err != nil {
		return false, err
	}
	deleteCellAt(pg, i)
	db.keys--
	for _, s := range path {
		addChildCount(s.pg, s.idx, -1)
	}
	return true, db.pager.trim()
}

// findLeaf descends from the root to the leaf responsible for key.
func (db *DB) findLeaf(key []byte) (*page, error) {
	pg, err := db.pager.get(db.root)
	if err != nil {
		return nil, err
	}
	for pg.data[offType] == pageBranch {
		idx := childIndexFor(pg, key)
		pg, err = db.pager.get(childAt(pg, idx))
		if err != nil {
			return nil, err
		}
	}
	if pg.data[offType] != pageLeaf {
		return nil, corruptf("page %d: expected leaf, got type %d", pg.id, pg.data[offType])
	}
	return pg, nil
}

type splitResult struct {
	key   []byte // separator key: smallest key in the right sibling's subtree
	right uint32
	// leftKeys and rightKeys are the absolute post-insert key counts of
	// the two subtree halves.
	leftKeys  uint32
	rightKeys uint32
}

// insert descends to the leaf for key and inserts (key, value). It returns
// a non-nil splitResult when the page split, and added reports whether the
// key count of the subtree grew (false for in-place replacements), which
// drives the counter maintenance in the parents.
func (db *DB) insert(pageID uint32, key, value []byte) (*splitResult, bool, error) {
	pg, err := db.pager.get(pageID)
	if err != nil {
		return nil, false, err
	}
	switch pg.data[offType] {
	case pageLeaf:
		return db.insertLeaf(pg, key, value)
	case pageBranch:
		idx := childIndexFor(pg, key)
		split, added, err := db.insert(childAt(pg, idx), key, value)
		if err != nil {
			return nil, false, err
		}
		if split == nil {
			if added {
				addChildCount(pg, idx, 1)
			}
			return nil, added, nil
		}
		// The child split: its counter becomes the left half's total and
		// the new separator cell carries the right half's.
		setChildCount(pg, idx, split.leftKeys)
		cell := makeBranchCell(split.key, split.right, split.rightKeys)
		if insertCellAt(pg, idx+1, cell) {
			return nil, added, nil
		}
		sp, err := db.splitBranch(pg, idx+1, cell)
		return sp, added, err
	default:
		return nil, false, corruptf("page %d: unexpected type %d during insert", pg.id, pg.data[offType])
	}
}

func (db *DB) insertLeaf(pg *page, key, value []byte) (*splitResult, bool, error) {
	i, found := search(pg, key)
	if found {
		if err := db.freeCellOverflow(pg, i); err != nil {
			return nil, false, err
		}
		deleteCellAt(pg, i)
		db.keys--
	}
	cell, err := db.makeValueCell(key, value)
	if err != nil {
		return nil, false, err
	}
	if insertCellAt(pg, i, cell) {
		db.keys++
		return nil, !found, nil
	}
	split, err := db.splitLeaf(pg, i, cell)
	if err != nil {
		return nil, false, err
	}
	db.keys++
	return split, !found, nil
}

// makeValueCell builds the leaf cell for (key, value), spilling large values
// into an overflow chain.
func (db *DB) makeValueCell(key, value []byte) ([]byte, error) {
	if 3+len(key)+2+len(value) <= maxInlineCell {
		return makeLeafCell(key, value, 0, 0), nil
	}
	first, err := db.writeOverflow(value)
	if err != nil {
		return nil, err
	}
	return makeLeafCell(key, nil, uint32(len(value)), first), nil
}

// splitLeaf splits pg and inserts cell at logical index i across the halves.
func (db *DB) splitLeaf(pg *page, i int, cell []byte) (*splitResult, error) {
	right, err := db.pager.allocate()
	if err != nil {
		return nil, err
	}
	initPage(right, pageLeaf)
	setNextLeaf(right, nextLeaf(pg))
	setNextLeaf(pg, right.id)

	n := nCells(pg)
	mid := (n + 1) / 2
	// Move cells mid..n-1 to the right page.
	for j := mid; j < n; j++ {
		off := cellOffset(pg, j)
		sz := cellSize(pg, j)
		if !insertCellAt(right, j-mid, pg.data[off:off+sz]) {
			return nil, corruptf("leaf split: cell does not fit into fresh page")
		}
	}
	setNCells(pg, mid)
	compact(pg)

	target, pos := pg, i
	if i > mid {
		target, pos = right, i-mid
	} else if i == mid {
		// Inserting at the boundary: choose the side with room; prefer
		// the right page so the separator stays the right's first key.
		target, pos = right, 0
	}
	if !insertCellAt(target, pos, cell) {
		// The cell must fit into the other half then.
		if target == right {
			target, pos = pg, nCells(pg)
		} else {
			target, pos = right, 0
		}
		if !insertCellAt(target, pos, cell) {
			return nil, corruptf("leaf split: cell does not fit into either half")
		}
	}
	return &splitResult{
		key:       append([]byte(nil), cellKey(right, 0)...),
		right:     right.id,
		leftKeys:  uint32(nCells(pg)),
		rightKeys: uint32(nCells(right)),
	}, nil
}

// splitBranch splits a full branch page and inserts cell at index i.
func (db *DB) splitBranch(pg *page, i int, cell []byte) (*splitResult, error) {
	right, err := db.pager.allocate()
	if err != nil {
		return nil, err
	}
	initBranch(right)

	n := nCells(pg)
	mid := n / 2
	// The middle key is promoted; its child becomes the right page's
	// leftmost child (carrying its subtree counter into the header slot).
	sep := append([]byte(nil), cellKey(pg, mid)...)
	setLeftChild(right, branchChild(pg, mid))
	setLeftCount(right, branchCellCount(pg, mid))
	for j := mid + 1; j < n; j++ {
		off := cellOffset(pg, j)
		sz := cellSize(pg, j)
		if !insertCellAt(right, j-mid-1, pg.data[off:off+sz]) {
			return nil, corruptf("branch split: cell does not fit into fresh page")
		}
	}
	setNCells(pg, mid)
	compact(pg)

	if i <= mid {
		if !insertCellAt(pg, i, cell) {
			return nil, corruptf("branch split: cell does not fit into left half")
		}
	} else {
		if !insertCellAt(right, i-mid-1, cell) {
			return nil, corruptf("branch split: cell does not fit into right half")
		}
	}
	return &splitResult{
		key:       sep,
		right:     right.id,
		leftKeys:  subtreeKeys(pg),
		rightKeys: subtreeKeys(right),
	}, nil
}

// readValue materializes the value of leaf cell i, following overflow
// chains. On a memory-mapped database inline values are returned zero-copy
// as a subslice of the mapping; overflow chains are still assembled into a
// fresh buffer because their pages are not contiguous.
func (db *DB) readValue(pg *page, i int) ([]byte, error) {
	val, ovfLen, ovfPage := leafCellValue(pg, i)
	if ovfPage == 0 {
		if db.mem != nil {
			return val, nil
		}
		return append([]byte(nil), val...), nil
	}
	out := make([]byte, 0, ovfLen)
	for pid := ovfPage; pid != 0; {
		opg, err := db.pager.get(pid)
		if err != nil {
			return nil, err
		}
		if opg.data[offType] != pageOverflow {
			return nil, corruptf("page %d: expected overflow, got type %d", pid, opg.data[offType])
		}
		dlen := int(getU16(opg.data, ovfOffLen))
		out = append(out, opg.data[ovfHdrSize:ovfHdrSize+dlen]...)
		pid = getU32(opg.data, ovfOffNext)
	}
	if len(out) != int(ovfLen) {
		return nil, corruptf("overflow chain yields %d bytes, expected %d", len(out), ovfLen)
	}
	return out, nil
}

// writeOverflow stores value in a chain of overflow pages, returning the
// first page id.
func (db *DB) writeOverflow(value []byte) (uint32, error) {
	var first, prev *page
	for off := 0; off < len(value) || first == nil; off += ovfCapacity {
		pg, err := db.pager.allocate()
		if err != nil {
			return 0, err
		}
		pg.data[offType] = pageOverflow
		end := off + ovfCapacity
		if end > len(value) {
			end = len(value)
		}
		putU16(pg.data, ovfOffLen, uint16(end-off))
		copy(pg.data[ovfHdrSize:], value[off:end])
		putU32(pg.data, ovfOffNext, 0)
		pg.dirty = true
		if prev != nil {
			putU32(prev.data, ovfOffNext, pg.id)
			prev.dirty = true
		} else {
			first = pg
		}
		prev = pg
	}
	return first.id, nil
}

// freeCellOverflow releases the overflow chain of leaf cell i, if any.
func (db *DB) freeCellOverflow(pg *page, i int) error {
	_, _, ovfPage := leafCellValue(pg, i)
	for pid := ovfPage; pid != 0; {
		opg, err := db.pager.get(pid)
		if err != nil {
			return err
		}
		next := getU32(opg.data, ovfOffNext)
		db.pager.free(opg)
		pid = next
	}
	return nil
}
