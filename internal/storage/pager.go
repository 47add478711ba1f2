package storage

import (
	"container/list"
	"io"
	"os"
)

// page is an in-memory copy of an on-disk page.
type page struct {
	id   uint32
	data []byte // always PageSize bytes

	// elem is the page's position in the LRU list (file-backed pagers only).
	elem *list.Element
}

// pager provides cached page access. With a nil file, all pages live in
// memory and are never evicted. The builder writes each page once, straight
// to the file, so the cache only ever holds clean copies. A memory-mapped
// pager (setupMmap) serves every page as a slice directly into the mapped
// region: no cache, no eviction, no per-page allocation.
type pager struct {
	file     *os.File
	pages    map[uint32]*page
	lru      *list.List // front = most recent; file-backed only
	maxCache int
	nextID   uint32 // next page id to allocate (== page count)
	reads    uint64 // logical page accesses (cache hits included)
	evicts   uint64 // pages evicted from the cache

	mem    []byte // read-only mapping of the whole file, nil when unmapped
	mpages []page // one fixed page struct per mapped page

	// spare holds page buffers recovered from evicted pages so read-heavy
	// workloads stop allocating PageSize per cache miss.
	spare [][]byte
}

// maxSpareBuffers bounds the recycled-buffer pool; beyond it victims' buffers
// are dropped for the GC.
const maxSpareBuffers = 64

func newPager(file *os.File, cachePages int) *pager {
	p := &pager{
		file:     file,
		pages:    make(map[uint32]*page),
		maxCache: cachePages,
		nextID:   1, // page 0 is the meta page
	}
	if file != nil {
		p.lru = list.New()
	}
	return p
}

// setupMmap switches the pager to serve pages out of mem, a read-only
// mapping of the whole file. Page data slices alias the mapping directly,
// so the pager must never be written through afterwards (only a read-only
// store is mapped).
func (p *pager) setupMmap(mem []byte) {
	p.mem = mem
	p.lru = nil
	p.pages = nil
	n := len(mem) / PageSize
	p.mpages = make([]page, n)
	for i := range p.mpages {
		p.mpages[i] = page{id: uint32(i), data: mem[i*PageSize : (i+1)*PageSize]}
	}
}

// get returns the page with the given id, reading it from disk if necessary.
func (p *pager) get(id uint32) (*page, error) {
	p.reads++
	if id == 0 || id >= p.nextID {
		return nil, corruptf("page id %d out of range [1,%d)", id, p.nextID)
	}
	if p.mem != nil {
		return &p.mpages[id], nil
	}
	if pg, ok := p.pages[id]; ok {
		p.touch(pg)
		return pg, nil
	}
	if p.file == nil {
		return nil, corruptf("page %d missing from in-memory pager", id)
	}
	var buf []byte
	if n := len(p.spare); n > 0 {
		buf = p.spare[n-1]
		p.spare = p.spare[:n-1]
	} else {
		buf = make([]byte, PageSize)
	}
	pg := &page{id: id, data: buf}
	if _, err := p.file.ReadAt(pg.data, int64(id)*PageSize); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, corruptf("page %d beyond end of file", id)
		}
		return nil, err
	}
	p.insert(pg)
	return pg, nil
}

// allocate reserves the next page id.
func (p *pager) allocate() uint32 {
	p.nextID++
	return p.nextID - 1
}

// write stores a finished page: in the file, or in the page map of an
// in-memory pager.
func (p *pager) write(pg *page) error {
	if p.file == nil {
		p.pages[pg.id] = pg
		return nil
	}
	_, err := p.file.WriteAt(pg.data, int64(pg.id)*PageSize)
	return err
}

func (p *pager) insert(pg *page) {
	p.pages[pg.id] = pg
	if p.lru != nil {
		pg.elem = p.lru.PushFront(pg)
	}
}

// trim evicts least-recently-used pages until the cache is within bounds.
// It must only be called between operations: an operation holds direct
// *page pointers, whose buffers an eviction recycles.
func (p *pager) trim() {
	if p.lru == nil {
		return
	}
	for p.lru.Len() > p.maxCache {
		p.evict(p.lru.Back().Value.(*page))
	}
}

func (p *pager) touch(pg *page) {
	if p.lru != nil && pg.elem != nil {
		p.lru.MoveToFront(pg.elem)
	}
}

func (p *pager) evict(pg *page) {
	p.lru.Remove(pg.elem)
	delete(p.pages, pg.id)
	p.evicts++
	// Recycle the victim's buffer: trim runs only between operations, so no
	// live cursor or tree operation still references this slice.
	if len(p.spare) < maxSpareBuffers {
		p.spare = append(p.spare, pg.data)
		pg.data = nil
	}
}

func getU16(b []byte, off int) uint16 { return uint16(b[off]) | uint16(b[off+1])<<8 }

func putU16(b []byte, off int, v uint16) {
	b[off] = byte(v)
	b[off+1] = byte(v >> 8)
}

func getU32(b []byte, off int) uint32 {
	return uint32(b[off]) | uint32(b[off+1])<<8 | uint32(b[off+2])<<16 | uint32(b[off+3])<<24
}

func putU32(b []byte, off int, v uint32) {
	b[off] = byte(v)
	b[off+1] = byte(v >> 8)
	b[off+2] = byte(v >> 16)
	b[off+3] = byte(v >> 24)
}

func getU64(b []byte, off int) uint64 {
	return uint64(getU32(b, off)) | uint64(getU32(b, off+4))<<32
}

func putU64(b []byte, off int, v uint64) {
	putU32(b, off, uint32(v))
	putU32(b, off+4, uint32(v>>32))
}
