package storage

import (
	"fmt"
	"os"
	"strings"
	"sync"

	"approxql/internal/format"
)

// metaMagic opens the meta page. Its last two bytes are the layout version:
// 03 files are written once, bottom-up from ascending keys, and carry
// per-subtree key counters on every branch page.
const (
	metaMagic       = "AXQLBT03"
	metaMagicPrefix = "AXQLBT"
)

// DB is an embedded B+tree key-value store. Open one with Open; a DB with
// an empty path lives entirely in memory.
//
// A store is written once. A DB over a fresh file, or in memory, takes Puts
// in strictly ascending key order; its first read, or Close, finishes the
// tree. From then on, and on a DB opened over an existing file, it only
// reads.
type DB struct {
	mu     sync.Mutex
	pager  *pager
	file   *os.File
	root   uint32
	keys   uint64
	closed bool
	mem    []byte   // read-only mapping of the file; nil in pager mode
	build  *builder // non-nil while the store takes Puts
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

// Open opens the database at path, or creates it to be built. An empty
// path creates a purely in-memory database.
func Open(path string, opts *Options) (*DB, error) {
	if opts == nil {
		opts = &Options{}
	}
	cache := opts.CachePages
	if cache <= 0 {
		cache = 4096
	}
	if path == "" {
		p := newPager(nil, cache)
		return &DB{pager: p, build: &builder{pager: p}}, nil
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
	db := &DB{file: f, pager: newPager(f, cache)}
	if st.Size() == 0 && !opts.ReadOnly {
		db.build = &builder{pager: db.pager}
		return db, nil
	}
	if st.Size() == 0 || st.Size()%PageSize != 0 {
		f.Close()
		return nil, corruptf("file size %d is not a positive multiple of the page size", st.Size())
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

// writeMeta writes the meta page: magic, root, the free-list head (always
// 0: a store built once frees no page), page count, and key count.
func (db *DB) writeMeta() error {
	meta := make([]byte, PageSize)
	copy(meta, metaMagic)
	putU32(meta, 8, db.root)
	putU32(meta, 16, db.pager.nextID)
	putU64(meta, 24, db.keys)
	_, err := db.file.WriteAt(meta, 0)
	return err
}

// ready prepares the store for a read: it refuses a closed store and
// finishes a build in progress, which ends the store's Puts. Callers hold
// db.mu.
func (db *DB) ready() error {
	if db.closed {
		return ErrClosed
	}
	b := db.build
	if b == nil {
		return nil
	}
	db.build = nil
	root, err := b.finish()
	if err != nil {
		return err
	}
	db.root = root
	if db.file == nil {
		return nil
	}
	if err := db.writeMeta(); err != nil {
		return err
	}
	return db.file.Sync()
}

// unlock ends an operation: it trims the page cache back to its bound,
// which is safe only between operations, and releases db.mu.
func (db *DB) unlock() {
	db.pager.trim()
	db.mu.Unlock()
}

// Close finishes a build in progress and closes the database. The DB is
// unusable afterwards.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	err := db.ready()
	db.closed = true
	if db.mem != nil {
		if uerr := munmapFile(db.mem); err == nil {
			err = uerr
		}
		db.mem = nil
	}
	if db.file != nil {
		if cerr := db.file.Close(); err == nil {
			err = cerr
		}
	}
	return err
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
	defer db.unlock()
	if err := db.ready(); err != nil {
		return nil, false, err
	}
	pg, err := db.findLeaf(key)
	if err != nil {
		return nil, false, err
	}
	i, found := search(pg, key)
	if !found {
		return nil, false, nil
	}
	val, err := db.readValue(pg, i)
	if err != nil {
		return nil, false, err
	}
	return val, true, nil
}

// Has reports whether key exists.
func (db *DB) Has(key []byte) (bool, error) {
	db.mu.Lock()
	defer db.unlock()
	if err := db.ready(); err != nil {
		return false, err
	}
	pg, err := db.findLeaf(key)
	if err != nil {
		return false, err
	}
	_, found := search(pg, key)
	return found, nil
}

// Put appends (key, value) to a store being built. Keys must arrive in
// strictly ascending order: a key not above the previous one fails with
// ErrKeyOrder, and a Put after the store's first read, or on a store opened
// over an existing file, fails with ErrReadOnly. A failed Put leaves the
// store as it was.
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
	if db.build == nil {
		return ErrReadOnly
	}
	if err := db.build.put(key, value); err != nil {
		return err
	}
	db.keys++
	return nil
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
