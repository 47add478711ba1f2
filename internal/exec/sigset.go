package exec

import (
	"bytes"
	"hash/maphash"
	"sync"
)

// sigSet is an exact set of skeleton signatures that allocates nothing per
// insert once warm: the signatures live back to back in one reused byte
// slab, a map keys each by its hash, and spans sharing a hash are chained,
// so membership is decided by comparing bytes, never by the hash alone.
type sigSet struct {
	seed  maphash.Seed
	slab  []byte
	spans []sigSpan
	last  map[uint64]int32 // hash -> the latest span with that hash
}

// sigSpan is one stored signature, slab[start:end]; prev is the previous
// span with the same hash, -1 at the end of the chain.
type sigSpan struct {
	start, end, prev int32
}

// maxPooledSigs keeps a pathological run's set out of the pool: clearing
// its map would cost every later run the map's peak size.
const maxPooledSigs = 1 << 12

var sigSets = sync.Pool{New: func() any {
	return &sigSet{seed: maphash.MakeSeed(), last: make(map[uint64]int32)}
}}

func getSigSet() *sigSet { return sigSets.Get().(*sigSet) }

// release empties the set and returns it to the pool.
func (s *sigSet) release() {
	if len(s.spans) > maxPooledSigs {
		return
	}
	s.slab, s.spans = s.slab[:0], s.spans[:0]
	clear(s.last)
	sigSets.Put(s)
}

// add inserts sig and reports whether it was absent. sig is copied.
func (s *sigSet) add(sig []byte) bool {
	h := maphash.Bytes(s.seed, sig)
	prev := int32(-1)
	if i, ok := s.last[h]; ok {
		prev = i
	}
	for j := prev; j >= 0; j = s.spans[j].prev {
		if sp := s.spans[j]; bytes.Equal(s.slab[sp.start:sp.end], sig) {
			return false
		}
	}
	start := int32(len(s.slab))
	s.slab = append(s.slab, sig...)
	s.last[h] = int32(len(s.spans))
	s.spans = append(s.spans, sigSpan{start: start, end: int32(len(s.slab)), prev: prev})
	return true
}
