package dict

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
)

// Reader is the read-only dictionary surface the data tree and the indexes
// consume. Both the mutable interning *Dict and the immutable front-coded
// *Packed implement it.
type Reader interface {
	// Lookup returns the ID for s, or None if s is not in the dictionary.
	Lookup(s string) ID
	// String returns the string for id. It panics if id is out of range.
	String(id ID) string
	// Len reports the number of strings.
	Len() int
	// Strings returns a copy of all strings indexed by ID.
	Strings() []string
}

var (
	_ Reader = (*Dict)(nil)
	_ Reader = (*Packed)(nil)
)

// packedBlockSize is the number of strings per front-coded block. The first
// entry of a block is stored in full; the rest as (shared-prefix length,
// suffix). 16 keeps in-block scans short while amortizing the full first
// string over the block.
const packedBlockSize = 16

// Packed is an immutable dictionary over one contiguous byte blob in the
// front-coded sorted block format produced by Pack:
//
//	u32 count | u32 dataLen
//	| count × u32 idToRank      (ID → lexicographic rank)
//	| count × u32 rankToID      (lexicographic rank → ID)
//	| nBlocks × u32 blockOff    (block start offsets into data)
//	| data: per block, first string as uvarint(len) bytes, then per entry
//	  uvarint(lcp) uvarint(suffixLen) suffix
//
// Lookups binary-search the block first keys and front-decode one block;
// String front-decodes a block prefix. No Go string is materialized until
// asked for, so opening a Packed over loaded or mapped bytes costs one
// O(total bytes) validation walk with zero string allocations.
type Packed struct {
	count    int
	idToRank []byte // raw little-endian u32 tables into the blob
	rankToID []byte
	blockOff []byte
	data     []byte
}

func pu32(tab []byte, i int) uint32 {
	return binary.LittleEndian.Uint32(tab[i*4:])
}

// Pack serializes strs (indexed by ID, all distinct) into the front-coded
// blob format read by OpenPacked.
func Pack(strs []string) []byte {
	count := len(strs)
	rankToID := make([]int, count)
	for i := range rankToID {
		rankToID[i] = i
	}
	sort.Slice(rankToID, func(a, b int) bool { return strs[rankToID[a]] < strs[rankToID[b]] })

	nBlocks := (count + packedBlockSize - 1) / packedBlockSize
	var data []byte
	blockOff := make([]uint32, nBlocks)
	var prev string
	for r := 0; r < count; r++ {
		s := strs[rankToID[r]]
		if r%packedBlockSize == 0 {
			blockOff[r/packedBlockSize] = uint32(len(data))
			data = binary.AppendUvarint(data, uint64(len(s)))
			data = append(data, s...)
		} else {
			l := commonPrefix(prev, s)
			data = binary.AppendUvarint(data, uint64(l))
			data = binary.AppendUvarint(data, uint64(len(s)-l))
			data = append(data, s[l:]...)
		}
		prev = s
	}

	blob := make([]byte, 0, 8+8*count+4*nBlocks+len(data))
	blob = binary.LittleEndian.AppendUint32(blob, uint32(count))
	blob = binary.LittleEndian.AppendUint32(blob, uint32(len(data)))
	idToRank := make([]uint32, count)
	for r, id := range rankToID {
		idToRank[id] = uint32(r)
	}
	for _, r := range idToRank {
		blob = binary.LittleEndian.AppendUint32(blob, r)
	}
	for _, id := range rankToID {
		blob = binary.LittleEndian.AppendUint32(blob, uint32(id))
	}
	for _, off := range blockOff {
		blob = binary.LittleEndian.AppendUint32(blob, off)
	}
	return append(blob, data...)
}

func commonPrefix(a, b string) int {
	n := min(len(a), len(b))
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// OpenPacked wraps blob (which may alias a memory mapping; it is never
// written) as a Packed dictionary, validating the structure: table sizes,
// block offsets, strict lexicographic order, and that the two rank tables
// are inverse permutations.
func OpenPacked(blob []byte) (*Packed, error) {
	if len(blob) < 8 {
		return nil, fmt.Errorf("dict: packed blob too short (%d bytes)", len(blob))
	}
	count := int(binary.LittleEndian.Uint32(blob))
	dataLen := int(binary.LittleEndian.Uint32(blob[4:]))
	nBlocks := (count + packedBlockSize - 1) / packedBlockSize
	need := 8 + 8*count + 4*nBlocks + dataLen
	if count > len(blob) || dataLen > len(blob) || len(blob) != need {
		return nil, fmt.Errorf("dict: packed blob is %d bytes, header implies %d", len(blob), need)
	}
	p := &Packed{
		count:    count,
		idToRank: blob[8 : 8+4*count],
		rankToID: blob[8+4*count : 8+8*count],
		blockOff: blob[8+8*count : 8+8*count+4*nBlocks],
		data:     blob[8+8*count+4*nBlocks:],
	}
	// One validation walk: every entry decodes in bounds, the order is
	// strictly sorted, and the rank tables are mutually inverse. Front
	// decoding mutates buf in place, so the predecessor is copied into a
	// scratch buffer before each step for the order comparison.
	var buf, prev []byte
	cur := blockCursor{p: p, check: true}
	for r := 0; r < count; r++ {
		id := pu32(p.rankToID, r)
		if int(id) >= count || int(pu32(p.idToRank, int(id))) != r {
			return nil, fmt.Errorf("dict: packed rank tables disagree at rank %d", r)
		}
		prev = append(prev[:0], buf...)
		var err error
		buf, err = cur.next(buf, r)
		if err != nil {
			return nil, err
		}
		if r > 0 && bytes.Compare(prev, buf) >= 0 {
			return nil, fmt.Errorf("dict: packed entries out of order at rank %d", r)
		}
	}
	if count > 0 && cur.off != len(p.data) {
		return nil, fmt.Errorf("dict: packed data has %d trailing bytes", len(p.data)-cur.off)
	}
	return p, nil
}

// blockCursor front-decodes entries in rank order. next must be called with
// consecutive ranks; a block-start rank re-seats the cursor at that block's
// offset, so a cursor may begin at any block boundary. With check set (the
// open-time validation walk) block offsets must also line up with where the
// previous block's entries ended.
type blockCursor struct {
	p     *Packed
	off   int
	check bool
}

// next decodes the entry at rank r into buf (whose contents must be the
// entry at rank r-1 unless r starts a block) and returns it.
func (c *blockCursor) next(buf []byte, r int) ([]byte, error) {
	p := c.p
	if r%packedBlockSize == 0 {
		b := r / packedBlockSize
		want := int(pu32(p.blockOff, b))
		if c.check {
			if b == 0 && want != 0 {
				return nil, fmt.Errorf("dict: packed block 0 starts at offset %d", want)
			}
			if r > 0 && c.off != want {
				return nil, fmt.Errorf("dict: packed block %d offset %d, entries end at %d", b, want, c.off)
			}
		}
		if want > len(p.data) {
			return nil, fmt.Errorf("dict: packed block %d offset %d out of range", b, want)
		}
		c.off = want
		n, w := binary.Uvarint(p.data[c.off:])
		if w <= 0 || n > uint64(len(p.data)) || c.off+w+int(n) > len(p.data) {
			return nil, fmt.Errorf("dict: packed block %d first entry truncated", b)
		}
		buf = append(buf[:0], p.data[c.off+w:c.off+w+int(n)]...)
		c.off += w + int(n)
		return buf, nil
	}
	lcp, w := binary.Uvarint(p.data[c.off:])
	if w <= 0 || lcp > uint64(len(buf)) {
		return nil, fmt.Errorf("dict: packed entry at rank %d has bad prefix length", r)
	}
	c.off += w
	sl, w := binary.Uvarint(p.data[c.off:])
	if w <= 0 || sl > uint64(len(p.data)) || c.off+w+int(sl) > len(p.data) {
		return nil, fmt.Errorf("dict: packed entry at rank %d truncated", r)
	}
	c.off += w
	buf = append(buf[:lcp], p.data[c.off:c.off+int(sl)]...)
	c.off += int(sl)
	return buf, nil
}

// Len reports the number of strings.
func (p *Packed) Len() int { return p.count }

// Lookup returns the ID for s, or None if absent: a binary search over the
// block first keys, then a front-coded scan of one block.
func (p *Packed) Lookup(s string) ID {
	if p.count == 0 {
		return None
	}
	nBlocks := (p.count + packedBlockSize - 1) / packedBlockSize
	// Find the last block whose first key is <= s.
	lo, hi := 0, nBlocks
	for lo < hi {
		mid := (lo + hi) / 2
		first := p.firstKey(mid)
		if string(first) <= s {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return None
	}
	b := lo - 1
	rank, ok := p.scanBlock(b, s)
	if !ok {
		return None
	}
	return ID(pu32(p.rankToID, rank))
}

// firstKey returns block b's first string as a zero-copy subslice.
func (p *Packed) firstKey(b int) []byte {
	off := int(pu32(p.blockOff, b))
	n, w := binary.Uvarint(p.data[off:])
	return p.data[off+w : off+w+int(n)]
}

// scanBufLen sizes the stack buffer scanBlock decodes into: a lookup
// allocates only in a block holding a string longer than this.
const scanBufLen = 128

// scanBlock front-decodes block b looking for s, returning its rank.
func (p *Packed) scanBlock(b int, s string) (int, bool) {
	last := min(p.count-b*packedBlockSize, packedBlockSize)
	cur := blockCursor{p: p}
	var stack [scanBufLen]byte
	buf := stack[:0]
	var err error
	for j := 0; j < last; j++ {
		if buf, err = cur.next(buf, b*packedBlockSize+j); err != nil {
			return 0, false // validated at open; unreachable
		}
		if string(buf) == s {
			return b*packedBlockSize + j, true
		}
		if string(buf) > s {
			return 0, false // sorted: s cannot appear later
		}
	}
	return 0, false
}

// String returns the string for id, front-decoding its block up to the
// entry. It panics if id is out of range, like Dict.String.
func (p *Packed) String(id ID) string {
	if id < 0 || int(id) >= p.count {
		panic(fmt.Sprintf("dict: packed id %d out of range [0,%d)", id, p.count))
	}
	rank := int(pu32(p.idToRank, int(id)))
	b := rank / packedBlockSize
	cur := blockCursor{p: p}
	var buf []byte
	for j := b * packedBlockSize; ; j++ {
		var err error
		if buf, err = cur.next(buf, j); err != nil {
			panic("dict: corrupt packed dictionary") // validated at open
		}
		if j == rank {
			return string(buf)
		}
	}
}

// Strings returns all strings indexed by ID, front-decoding every block
// once.
func (p *Packed) Strings() []string {
	out := make([]string, p.count)
	cur := blockCursor{p: p}
	var buf []byte
	for r := 0; r < p.count; r++ {
		var err error
		if buf, err = cur.next(buf, r); err != nil {
			panic("dict: corrupt packed dictionary") // validated at open
		}
		out[pu32(p.rankToID, r)] = string(buf)
	}
	return out
}
