package storage

import (
	"bytes"
	"testing"
)

// FuzzCounters builds a store from an opcode tape and cross-checks every
// count and rank operation against the model of accepted keys: CountPrefix,
// CountRange, Rank and SeekRank, over built keys, absent keys between them
// and keys past the last. The first of these reads ends the build; Check at
// the end verifies the stored per-subtree counters against a full leaf walk.
func FuzzCounters(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 3, 2, 1, 3, 0, 4})
	f.Add(append(bytes.Repeat([]byte{0, 7, 9, 0, 2, 70}, 50), bytes.Repeat([]byte{4, 3, 1, 9, 3, 2, 1}, 10)...))
	f.Add([]byte{0, 0, 200, 0, 1, 200, 3, 0, 4, 255})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, tape []byte) {
		s := newTapeStore(t)
		defer s.db.Close()
		r := newTapeReader(tape)
		for ops := 0; !r.done() && ops < 300; ops++ {
			op, kb := r.next(), r.next()
			if op%5 == 0 {
				s.put(kb, r.next())
				continue
			}
			key := s.key(kb)
			s.sealed = true
			switch op % 5 {
			case 1: // count a prefix
				prefix := key[:1+int(r.next())%len(key)]
				got, err := s.db.CountPrefix(prefix)
				if err != nil {
					t.Fatal(err)
				}
				want := 0
				for _, k := range s.keys {
					if bytes.HasPrefix(k, prefix) {
						want++
					}
				}
				if got != want {
					t.Fatalf("CountPrefix(%q) = %d, model %d", prefix, got, want)
				}
			case 2: // count a range
				hi := s.key(r.next())
				got, err := s.db.CountRange(key, hi)
				if err != nil {
					t.Fatal(err)
				}
				if want := max(s.rank(hi)-s.rank(key), 0); got != want {
					t.Fatalf("CountRange(%q, %q) = %d, model %d", key, hi, got, want)
				}
			case 3: // rank
				got, err := s.db.Rank(key)
				if err != nil {
					t.Fatal(err)
				}
				if want := s.rank(key); got != want {
					t.Fatalf("Rank(%q) = %d, model %d", key, got, want)
				}
			case 4: // rank jump, one past the last rank included
				i := int(r.next()) % (len(s.keys) + 1)
				c := s.db.NewCursor()
				if i == len(s.keys) {
					if c.SeekRank(i) || c.Err() != nil {
						t.Fatalf("SeekRank(%d) past %d keys = %q, %v", i, len(s.keys), c.Key(), c.Err())
					}
					continue
				}
				if !c.SeekRank(i) {
					t.Fatalf("SeekRank(%d) failed: %v", i, c.Err())
				}
				if want := s.keys[i]; !bytes.Equal(c.Key(), want) {
					t.Fatalf("SeekRank(%d) = %q, model %q", i, c.Key(), want)
				}
			}
		}
		s.verify()
		if got, err := s.db.CountRange(nil, nil); err != nil || got != len(s.keys) {
			t.Fatalf("CountRange(nil, nil) = %d, %v; model %d", got, err, len(s.keys))
		}
	})
}
