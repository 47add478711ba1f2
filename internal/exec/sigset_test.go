package exec

import (
	"fmt"
	"hash/maphash"
	"math/rand"
	"testing"
)

// TestSigSetExact checks the signature set against a string map on random
// signatures with many repeats, across a pool round trip, and walks a
// forced hash collision: two different signatures on one chain stay
// distinct members.
func TestSigSetExact(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for round := 0; round < 3; round++ {
		s := getSigSet()
		ref := make(map[string]bool)
		for i := 0; i < 2000; i++ {
			sig := []byte(fmt.Sprintf("%d#l(%d)", rng.Intn(300), rng.Intn(4)))
			if got, want := s.add(sig), !ref[string(sig)]; got != want {
				t.Fatalf("round %d: add(%s) = %v, want %v", round, sig, got, want)
			}
			ref[string(sig)] = true
		}
		s.release()
	}

	s := getSigSet()
	defer s.release()
	a, b := []byte("1#cd"), []byte("2#cd")
	s.add(a)
	// Pretend b hashes like a: b's lookup lands on a's chain.
	s.last[maphash.Bytes(s.seed, b)] = s.last[maphash.Bytes(s.seed, a)]
	if !s.add(b) {
		t.Fatal("a colliding, different signature reported present")
	}
	if s.add(a) || s.add(b) {
		t.Fatal("a chained signature reported absent")
	}
}
