package index

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"approxql/internal/format"
	"approxql/internal/xmltree"
)

// Posting wire format. A non-empty posting is grouped into blocks with a
// skip table:
//
//	0x00 | 0x03 | uvarint(count) | uvarint(blockSize)
//	| per block: uvarint(firstDelta) uvarint(bodyLen)   (the skip table)
//	| per block: the other (len-1) deltas, group-varint   (the bodies)
//
// firstDelta is the difference between this block's first entry and the
// previous block's first entry (the first block's against zero), so the skip
// table alone reconstructs every block's first value: a bounded decode skips
// whole blocks — table scan only, bodies untouched — once a block's first
// entry exceeds the bound. Body deltas run from the block's own first entry,
// which lives in the skip table and is not repeated in the body.
//
// A body is a sequence of groups of up to 4 deltas: ctrl | deltas, where the
// control byte holds each delta's byte length minus one in two bits (delta i
// in bits 2i..2i+1) and the deltas follow little-endian in that many bytes.
// The decoder reads four fixed-width values per control byte with masked
// 32-bit loads — no per-byte continuation branch. A final group with fewer
// than 4 deltas uses only the low bits of its control byte.
//
// The empty posting is the single byte 0x00. Anything else — another byte
// after the 0x00 marker, or no marker at all — is not decoded.
const (
	formatMarker      = 0x00
	formatGroupVarint = 0x03

	// BlockSize is the number of entries per block. 128 four-byte IDs keep
	// a block body near cache-line-friendly sizes after delta compression
	// while making the skip table ~1% of the posting.
	BlockSize = 128
)

// noBound disables the bound of a bounded decode. NodeID is signed, so this
// is the maximum preorder number, not an all-ones pattern.
const noBound = xmltree.NodeID(math.MaxInt32)

// uvarintLen returns the encoded size of v, for exact buffer sizing.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// gvMask[n] keeps the low n bytes of a little-endian 32-bit load.
var gvMask = [5]uint32{0, 0xFF, 0xFFFF, 0xFF_FFFF, 0xFFFF_FFFF}

// gvByteLen returns the 1..4-byte group-varint width of v.
func gvByteLen(v uint32) int {
	return (bits.Len32(v|1) + 7) / 8
}

// groupVarintSize returns the encoded body size of blk's deltas: one control
// byte per group of up to four deltas plus each delta's byte width.
func groupVarintSize(blk []xmltree.NodeID) int {
	size := (len(blk) - 1 + 3) / 4
	prev := blk[0]
	for _, u := range blk[1:] {
		size += gvByteLen(uint32(u - prev))
		prev = u
	}
	return size
}

// appendGroupVarint appends the deltas of blk (from its first entry, which
// is not repeated) in group-varint form.
func appendGroupVarint(buf []byte, blk []xmltree.NodeID) []byte {
	prev := blk[0]
	deltas := blk[1:]
	for len(deltas) > 0 {
		g := deltas
		if len(g) > 4 {
			g = g[:4]
		}
		ctrlPos := len(buf)
		buf = append(buf, 0)
		var ctrl byte
		for i, u := range g {
			d := uint32(u - prev)
			prev = u
			n := gvByteLen(d)
			ctrl |= byte(n-1) << (2 * i)
			switch n {
			case 1:
				buf = append(buf, byte(d))
			case 2:
				buf = append(buf, byte(d), byte(d>>8))
			case 3:
				buf = append(buf, byte(d), byte(d>>8), byte(d>>16))
			default:
				buf = append(buf, byte(d), byte(d>>8), byte(d>>16), byte(d>>24))
			}
		}
		buf[ctrlPos] = ctrl
		deltas = deltas[len(g):]
	}
	return buf
}

// EncodePosting serializes a sorted posting. The buffer is sized exactly by a
// first measuring pass, so encoding performs a single allocation with no
// slack. The schema's secondary index shares this codec.
func EncodePosting(post []xmltree.NodeID) []byte {
	if len(post) == 0 {
		return []byte{formatMarker}
	}
	nBlocks := (len(post) + BlockSize - 1) / BlockSize

	// Pass 1: exact output size and per-block body lengths.
	size := 2 + uvarintLen(uint64(len(post))) + uvarintLen(BlockSize)
	bodyLens := make([]int, nBlocks)
	prevFirst := xmltree.NodeID(0)
	for b := range bodyLens {
		blk := post[b*BlockSize : min((b+1)*BlockSize, len(post))]
		bodyLens[b] = groupVarintSize(blk)
		size += uvarintLen(uint64(blk[0]-prevFirst)) + uvarintLen(uint64(bodyLens[b])) + bodyLens[b]
		prevFirst = blk[0]
	}

	// Pass 2: fill.
	buf := make([]byte, 0, size)
	buf = append(buf, formatMarker, formatGroupVarint)
	buf = binary.AppendUvarint(buf, uint64(len(post)))
	buf = binary.AppendUvarint(buf, BlockSize)
	prevFirst = 0
	for b := range bodyLens {
		blk := post[b*BlockSize : min((b+1)*BlockSize, len(post))]
		buf = binary.AppendUvarint(buf, uint64(blk[0]-prevFirst))
		buf = binary.AppendUvarint(buf, uint64(bodyLens[b]))
		prevFirst = blk[0]
	}
	for b := range bodyLens {
		buf = appendGroupVarint(buf, post[b*BlockSize:min((b+1)*BlockSize, len(post))])
	}
	return buf
}

// postingBody strips the format marker of a non-empty posting. A marker
// naming another format version is a format.VersionError; bytes without a
// marker (the flat varint stream of the first codec among them) are a plain
// decode error.
func postingBody(data []byte) ([]byte, error) {
	if len(data) < 2 || data[0] != formatMarker {
		return nil, fmt.Errorf("index: posting lacks the %#02x %#02x format marker", formatMarker, formatGroupVarint)
	}
	if data[1] != formatGroupVarint {
		return nil, &format.VersionError{
			Kind:      "posting",
			Found:     fmt.Sprintf("%#02x %#02x", data[0], data[1]),
			Supported: fmt.Sprintf("%#02x %#02x", formatMarker, formatGroupVarint),
		}
	}
	return data[2:], nil
}

// isEmptyPosting reports whether data is the one-byte empty posting.
func isEmptyPosting(data []byte) bool {
	return len(data) == 1 && data[0] == formatMarker
}

// PostingCount reads the entry count of an encoded posting without decoding
// the entries — the count-only fast path used when only a posting's size is
// wanted. data may be a prefix of the posting that covers its header.
func PostingCount(data []byte) (int, error) {
	if isEmptyPosting(data) {
		return 0, nil
	}
	body, err := postingBody(data)
	if err != nil {
		return 0, err
	}
	count, n := binary.Uvarint(body)
	if n <= 0 {
		return 0, fmt.Errorf("index: bad posting header")
	}
	return int(count), nil
}

// DecodePosting reverses EncodePosting into a freshly allocated slice.
func DecodePosting(data []byte) ([]xmltree.NodeID, error) {
	return DecodePostingInto(nil, data)
}

// DecodePostingInto appends the decoded posting to dst and returns the
// extended slice, like append. Callers that decode repeatedly pass a reused
// buffer truncated to zero length; decoding then allocates only when the
// posting outgrows the buffer's capacity.
func DecodePostingInto(dst []xmltree.NodeID, data []byte) ([]xmltree.NodeID, error) {
	return DecodePostingUpTo(dst, data, noBound)
}

// DecodePostingUpTo is DecodePostingInto restricted to entries ≤ bound.
// Postings are sorted, so the decode stops at the first larger entry, and
// blocks whose first entry exceeds the bound are skipped from the skip table
// without reading their bodies.
func DecodePostingUpTo(dst []xmltree.NodeID, data []byte, bound xmltree.NodeID) ([]xmltree.NodeID, error) {
	if isEmptyPosting(data) {
		return dst, nil
	}
	body, err := postingBody(data)
	if err != nil {
		return dst, err
	}
	return decodeGroupVarint(dst, body, bound)
}

// decodeGroupVarint decodes the bytes after the format marker. Full groups
// of four deltas decode through masked little-endian 32-bit loads with no
// per-byte branching; the byte-wise path handles block tails and bodies too
// short for unaligned loads.
func decodeGroupVarint(dst []xmltree.NodeID, data []byte, bound xmltree.NodeID) ([]xmltree.NodeID, error) {
	count, n := binary.Uvarint(data)
	if n <= 0 {
		return dst, fmt.Errorf("index: bad posting header")
	}
	data = data[n:]
	bs, n := binary.Uvarint(data)
	if n <= 0 || bs == 0 {
		return dst, fmt.Errorf("index: bad posting block size")
	}
	data = data[n:]
	nBlocks := int((count + bs - 1) / bs)
	// Every entry costs at least one byte (in the skip table, a control
	// byte, or a delta), so a count beyond the payload is corrupt; checking
	// before pre-sizing keeps corrupt headers from forcing huge allocations.
	if count > uint64(len(data)) {
		return dst, fmt.Errorf("index: posting count %d exceeds payload", count)
	}
	if need := len(dst) + int(count); cap(dst) < need {
		dst = append(make([]xmltree.NodeID, 0, need), dst...)
	}

	// First walk the skip table to find where the bodies start; then walk
	// table and bodies with two cursors.
	p := 0
	for b := 0; b < nBlocks; b++ {
		for f := 0; f < 2; f++ {
			_, n := binary.Uvarint(data[p:])
			if n <= 0 {
				return dst, fmt.Errorf("index: truncated skip table at block %d", b)
			}
			p += n
		}
	}
	table, bodies := data[:p], data[p:]

	decoded := uint64(0)
	first := xmltree.NodeID(0)
	for b := 0; b < nBlocks; b++ {
		firstDelta, n := binary.Uvarint(table)
		table = table[n:]
		bodyLen, n := binary.Uvarint(table)
		table = table[n:]
		first += xmltree.NodeID(firstDelta)
		if first > bound {
			return dst, nil // later blocks start higher still
		}
		if bodyLen > uint64(len(bodies)) {
			return dst, fmt.Errorf("index: truncated body at block %d", b)
		}
		body := bodies[:bodyLen]
		bodies = bodies[bodyLen:]

		dst = append(dst, first)
		decoded++
		rem := min(bs, count-decoded+1) - 1 // deltas left in this block
		prev := first
		pos := 0
		// Fast path: a full group whose maximal 16-byte payload is in
		// bounds, so every delta reads as one masked unaligned load.
		for rem >= 4 && pos+17 <= len(body) {
			ctrl := body[pos]
			pos++
			for i := 0; i < 4; i++ {
				w := int(ctrl&3) + 1
				ctrl >>= 2
				prev += xmltree.NodeID(binary.LittleEndian.Uint32(body[pos:]) & gvMask[w])
				pos += w
				dst = append(dst, prev)
			}
			rem -= 4
			decoded += 4
			if prev > bound {
				// Sorted postings: everything past the bound is a tail of
				// this group — trim it and stop.
				for len(dst) > 0 && dst[len(dst)-1] > bound {
					dst = dst[:len(dst)-1]
				}
				return dst, nil
			}
		}
		// Byte-wise tail: short groups and bodies near their end.
		for rem > 0 {
			if pos >= len(body) {
				return dst, fmt.Errorf("index: truncated posting in block %d", b)
			}
			ctrl := body[pos]
			pos++
			g := rem
			if g > 4 {
				g = 4
			}
			for i := uint64(0); i < g; i++ {
				w := int(ctrl&3) + 1
				ctrl >>= 2
				if pos+w > len(body) {
					return dst, fmt.Errorf("index: truncated posting in block %d", b)
				}
				var d uint32
				for j := 0; j < w; j++ {
					d |= uint32(body[pos+j]) << (8 * j)
				}
				pos += w
				prev += xmltree.NodeID(d)
				decoded++
				if prev > bound {
					return dst, nil
				}
				dst = append(dst, prev)
			}
			rem -= g
		}
		if pos != len(body) {
			return dst, fmt.Errorf("index: %d trailing bytes in block %d", len(body)-pos, b)
		}
	}
	if decoded != count {
		return dst, fmt.Errorf("index: decoded %d entries, header said %d", decoded, count)
	}
	if len(bodies) != 0 {
		return dst, fmt.Errorf("index: %d trailing bytes after posting", len(bodies))
	}
	return dst, nil
}
