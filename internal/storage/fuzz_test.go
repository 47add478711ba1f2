package storage

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// FuzzBuild builds a store from a fuzzer-chosen ascending key set and holds
// it against the sorted slice it came from: Check, a read-back through Get
// and a cursor walk, and CountRange, CountPrefix, Rank and SeekRank. Key i
// takes its shape from byte shape[i%len(shape)]: the gap to the previous
// key (so absent keys lie between), whether it is MaxKeyLen long (so
// several branch levels form), and whether its value is small, at the
// maxInlineCell boundary, overflow-sized up to 3×PageSize, or empty. Along
// the way it tries the Puts a write-once store refuses — a duplicate and a
// smaller key mid-build, any key after the first read — and requires each
// to fail and leave the store readable.
func FuzzBuild(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{0, 1, 2, 3}, uint16(40))
	f.Add([]byte{0x80, 0x81, 0x82, 0x83}, uint16(700))
	f.Add([]byte{0x04, 0x05, 0x06, 0x84, 0x85, 0x86}, uint16(300))
	f.Add([]byte{0x08, 0x09, 0x88, 0x0c}, uint16(200))
	// A key set whose ascending Puts a splitting B+tree misplaced: its
	// leaf split dropped a cell into the wrong half.
	f.Add([]byte("0777\xa8"), uint16(300))
	f.Fuzz(func(t *testing.T, shape []byte, n uint16) {
		if len(shape) == 0 {
			shape = []byte{0}
		}
		db, err := Open("", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()

		count := int(n) % 1024
		keys, vals := make([][]byte, count), make([][]byte, count)
		prefixed := make(map[string]int) // keys per five-byte prefix
		idx := 0
		for i := range keys {
			b := shape[i%len(shape)]
			idx += 1 + int(b&3)
			key := fmt.Appendf(nil, "k%06d", idx)
			if b&0x80 != 0 {
				key = append(key, bytes.Repeat([]byte{'x'}, MaxKeyLen-len(key))...)
			}
			var size int
			switch b >> 2 & 3 {
			case 0:
				size = i * 7 % 64
			case 1:
				size = maxInlineCell - 3 - len(key) - 2 + i%3 - 1
			case 2:
				size = i * 997 % (3*PageSize + 1)
			}
			val := make([]byte, size)
			for j := range val {
				val[j] = byte(i + j)
			}
			keys[i], vals[i] = key, val
			prefixed[string(key[:5])]++

			if i > 0 && i == count/2 {
				for _, bad := range [][]byte{keys[i-1], keys[0], []byte("a")} {
					if err := db.Put(bad, nil); !errors.Is(err, ErrKeyOrder) {
						t.Fatalf("Put(%.10q) after %.10q: %v, want ErrKeyOrder", bad, keys[i-1], err)
					}
				}
			}
			if err := db.Put(key, val); err != nil {
				t.Fatalf("Put %d: %v", i, err)
			}
		}

		if err := db.Check(); err != nil {
			t.Fatalf("Check: %v", err)
		}
		if err := db.Put([]byte("z"), nil); err != ErrReadOnly {
			t.Fatalf("Put after a read: %v, want ErrReadOnly", err)
		}
		if err := db.Check(); err != nil {
			t.Fatalf("Check after a refused Put: %v", err)
		}
		if db.Len() != count {
			t.Fatalf("Len %d, built %d", db.Len(), count)
		}

		c := db.NewCursor()
		i := 0
		for ok := c.First(); ok; ok = c.Next() {
			if i >= count || !bytes.Equal(c.Key(), keys[i]) || !bytes.Equal(c.Value(), vals[i]) {
				t.Fatalf("cursor entry %d = %.10q, want %.10q", i, c.Key(), keys[min(i, count-1)])
			}
			i++
		}
		if c.Err() != nil || i != count {
			t.Fatalf("cursor walked %d of %d keys: %v", i, count, c.Err())
		}

		for i, key := range keys {
			v, ok, err := db.Get(key)
			if err != nil || !ok || !bytes.Equal(v, vals[i]) {
				t.Fatalf("Get(%.10q) = %d bytes, %v, %v; want %d bytes", key, len(v), ok, err, len(vals[i]))
			}
			after := append(bytes.Clone(key), 0)
			if _, ok, err := db.Get(after); err != nil || ok {
				t.Fatalf("Get(absent %.10q) = %v, %v", after, ok, err)
			}
			if r, err := db.Rank(key); err != nil || r != i {
				t.Fatalf("Rank(%.10q) = %d, %v; want %d", key, r, err, i)
			}
			if r, err := db.Rank(after); err != nil || r != i+1 {
				t.Fatalf("Rank(absent %.10q) = %d, %v; want %d", after, r, err, i+1)
			}
			if !c.SeekRank(i) || !bytes.Equal(c.Key(), key) {
				t.Fatalf("SeekRank(%d) = %.10q, %v; want %.10q", i, c.Key(), c.Err(), key)
			}
			j := count - 1 - i
			if got, err := db.CountRange(key, keys[j]); err != nil || got != max(j-i, 0) {
				t.Fatalf("CountRange(%d, %d) = %d, %v", i, j, got, err)
			}
			prefix := key[:5]
			if got, err := db.CountPrefix(prefix); err != nil || got != prefixed[string(prefix)] {
				t.Fatalf("CountPrefix(%q) = %d, %v; want %d", prefix, got, err, prefixed[string(prefix)])
			}
		}
		if got, err := db.CountRange(nil, nil); err != nil || got != count {
			t.Fatalf("CountRange(nil, nil) = %d, %v; want %d", got, err, count)
		}
	})
}

// FuzzOps drives the store with an opcode tape against a slice model:
// Puts whose keys step forward, repeat or step back, interleaved with Get
// and Has. The first read ends the build, so the tape decides how much of
// it is a build and how much a read phase in which every Put is refused.
func FuzzOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 1, 255, 3, 7, 0})
	f.Add(append(bytes.Repeat([]byte{0, 50, 7, 0, 3, 200}, 60), bytes.Repeat([]byte{1, 50, 2, 91}, 20)...))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, tape []byte) {
		s := newTapeStore(t)
		defer s.db.Close()
		r := newTapeReader(tape)
		for ops := 0; !r.done() && ops < 300; ops++ {
			op, kb := r.next(), r.next()
			switch op % 3 {
			case 0:
				s.put(kb, r.next())
			case 1:
				key := s.key(kb)
				v, ok, err := s.db.Get(key)
				s.sealed = true
				if err != nil {
					t.Fatal(err)
				}
				want, wantOK := s.lookup(key)
				if ok != wantOK || !bytes.Equal(v, want) {
					t.Fatalf("Get(%q) = %d bytes, %v; model %d bytes, %v", key, len(v), ok, len(want), wantOK)
				}
			case 2:
				key := s.key(kb)
				ok, err := s.db.Has(key)
				s.sealed = true
				if err != nil {
					t.Fatal(err)
				}
				if _, wantOK := s.lookup(key); ok != wantOK {
					t.Fatalf("Has(%q) = %v, model %v", key, ok, wantOK)
				}
			}
		}
		s.verify()
	})
}

// tapeReader hands out an opcode tape one byte at a time, then zeros.
type tapeReader struct {
	tape []byte
	i    int
}

func newTapeReader(tape []byte) *tapeReader { return &tapeReader{tape: tape} }

func (r *tapeReader) done() bool { return r.i >= len(r.tape) }

func (r *tapeReader) next() byte {
	if r.done() {
		return 0
	}
	r.i++
	return r.tape[r.i-1]
}

// tapeStore is an in-memory store under test together with its model: the
// keys and values it accepted, in order. Keys are "k%04d" of an index, so
// prefixes of one to five bytes group them by thousands, hundreds and tens.
type tapeStore struct {
	t      *testing.T
	db     *DB
	keys   [][]byte
	vals   [][]byte
	last   int  // index of the last accepted key, -1 before the first
	sealed bool // a read has ended the build
}

func newTapeStore(t *testing.T) *tapeStore {
	db, err := Open("", nil)
	if err != nil {
		t.Fatal(err)
	}
	return &tapeStore{t: t, db: db, last: -1}
}

func tapeKey(idx int) []byte { return fmt.Appendf(nil, "k%04d", idx) }

// put tries a Put of the key step%8-1 indexes past the last accepted one,
// so one step in four repeats or steps back, with a value of size bytes
// that now and then is overflow-sized. It requires the store to accept
// exactly the ascending Puts of an unsealed build and to refuse the rest
// with ErrKeyOrder or ErrReadOnly.
func (s *tapeStore) put(step, size byte) {
	idx := max(s.last+int(step%8)-1, 0)
	key := tapeKey(idx)
	vlen := int(size)
	if vlen%7 == 0 {
		vlen *= 97
	}
	val := bytes.Repeat([]byte{step}, vlen)
	err := s.db.Put(key, val)
	switch {
	case s.sealed:
		if err != ErrReadOnly {
			s.t.Fatalf("Put(%q) after a read: %v, want ErrReadOnly", key, err)
		}
	case idx <= s.last:
		if !errors.Is(err, ErrKeyOrder) {
			s.t.Fatalf("Put(%q) after %q: %v, want ErrKeyOrder", key, tapeKey(s.last), err)
		}
	case err != nil:
		s.t.Fatalf("Put(%q): %v", key, err)
	default:
		s.keys, s.vals, s.last = append(s.keys, key), append(s.vals, val), idx
	}
}

// key picks a key to read: one of the built keys, an absent key between
// them, or a key past the last.
func (s *tapeStore) key(b byte) []byte {
	return tapeKey(int(b) % (s.last + 3))
}

// lookup returns the model's value for key.
func (s *tapeStore) lookup(key []byte) ([]byte, bool) {
	i := s.rank(key)
	if i < len(s.keys) && bytes.Equal(s.keys[i], key) {
		return s.vals[i], true
	}
	return nil, false
}

// rank returns the number of model keys below key.
func (s *tapeStore) rank(key []byte) int {
	r := 0
	for r < len(s.keys) && bytes.Compare(s.keys[r], key) < 0 {
		r++
	}
	return r
}

// verify holds the finished store against the model: Check, Len, and a
// cursor walk over every entry.
func (s *tapeStore) verify() {
	t := s.t
	if err := s.db.Check(); err != nil {
		t.Fatalf("Check after tape: %v", err)
	}
	if s.db.Len() != len(s.keys) {
		t.Fatalf("Len %d, model %d", s.db.Len(), len(s.keys))
	}
	c := s.db.NewCursor()
	i := 0
	for ok := c.First(); ok; ok = c.Next() {
		if i >= len(s.keys) || !bytes.Equal(c.Key(), s.keys[i]) || !bytes.Equal(c.Value(), s.vals[i]) {
			t.Fatalf("cursor entry %d = %q diverged from model", i, c.Key())
		}
		i++
	}
	if c.Err() != nil || i != len(s.keys) {
		t.Fatalf("cursor walked %d of %d keys: %v", i, len(s.keys), c.Err())
	}
}
