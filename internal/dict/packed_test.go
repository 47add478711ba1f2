package dict

import (
	"fmt"
	"math/rand"
	"testing"
)

func packedFixture(t *testing.T, strs []string) *Packed {
	t.Helper()
	p, err := OpenPacked(Pack(strs))
	if err != nil {
		t.Fatalf("OpenPacked: %v", err)
	}
	return p
}

func TestPackedRoundTrip(t *testing.T) {
	strs := []string{"cd", "title", "composer", "", "catalog", "cdx", "ca", "zebra"}
	p := packedFixture(t, strs)
	if p.Len() != len(strs) {
		t.Fatalf("Len = %d, want %d", p.Len(), len(strs))
	}
	for id, s := range strs {
		if got := p.String(ID(id)); got != s {
			t.Fatalf("String(%d) = %q, want %q", id, got, s)
		}
		if got := p.Lookup(s); got != ID(id) {
			t.Fatalf("Lookup(%q) = %d, want %d", s, got, id)
		}
	}
	got := p.Strings()
	for id, s := range strs {
		if got[id] != s {
			t.Fatalf("Strings()[%d] = %q, want %q", id, got[id], s)
		}
	}
}

func TestPackedLookupMissing(t *testing.T) {
	p := packedFixture(t, []string{"cd", "title", "composer"})
	for _, s := range []string{"", "a", "cda", "c", "titl", "titlea", "zzz"} {
		if got := p.Lookup(s); got != None {
			t.Fatalf("Lookup(%q) = %d, want None", s, got)
		}
	}
}

func TestPackedEmpty(t *testing.T) {
	p := packedFixture(t, nil)
	if p.Len() != 0 {
		t.Fatalf("Len = %d, want 0", p.Len())
	}
	if got := p.Lookup("x"); got != None {
		t.Fatalf("Lookup on empty = %d, want None", got)
	}
	if got := p.Strings(); len(got) != 0 {
		t.Fatalf("Strings on empty has %d entries", len(got))
	}
}

func TestPackedManyBlocks(t *testing.T) {
	// Enough shared-prefix strings to span many blocks, inserted in a
	// shuffled ID order so ranks and IDs differ.
	rng := rand.New(rand.NewSource(7))
	var strs []string
	for i := 0; i < 1000; i++ {
		strs = append(strs, fmt.Sprintf("label-%04d", i))
	}
	rng.Shuffle(len(strs), func(i, j int) { strs[i], strs[j] = strs[j], strs[i] })
	p := packedFixture(t, strs)
	for id, s := range strs {
		if got := p.Lookup(s); got != ID(id) {
			t.Fatalf("Lookup(%q) = %d, want %d", s, got, id)
		}
		if got := p.String(ID(id)); got != s {
			t.Fatalf("String(%d) = %q, want %q", id, got, s)
		}
	}
	if got := p.Lookup("label-"); got != None {
		t.Fatalf("Lookup(prefix) = %d, want None", got)
	}
}

func TestPackedMatchesDict(t *testing.T) {
	d := New()
	for _, s := range []string{"catalog", "cd", "title", "composer", "price", "year", "artist"} {
		d.Intern(s)
	}
	p := packedFixture(t, d.Strings())
	for id := ID(0); int(id) < d.Len(); id++ {
		s := d.String(id)
		if got := p.String(id); got != s {
			t.Fatalf("String(%d) = %q, want %q", id, got, s)
		}
		if got := p.Lookup(s); got != d.Lookup(s) {
			t.Fatalf("Lookup(%q) = %d, want %d", s, got, d.Lookup(s))
		}
	}
}

func TestPackedStringPanicsOutOfRange(t *testing.T) {
	p := packedFixture(t, []string{"a"})
	for _, id := range []ID{-1, 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("String(%d) did not panic", id)
				}
			}()
			p.String(id)
		}()
	}
}

func TestOpenPackedRejectsCorruption(t *testing.T) {
	strs := []string{"catalog", "cd", "title", "composer", "price"}
	good := Pack(strs)

	cases := map[string]func([]byte) []byte{
		"truncated header": func(b []byte) []byte { return b[:4] },
		"truncated body":   func(b []byte) []byte { return b[:len(b)-3] },
		"trailing bytes":   func(b []byte) []byte { return append(b, 0) },
		"count too large": func(b []byte) []byte {
			b[0], b[1], b[2], b[3] = 0xff, 0xff, 0xff, 0x7f
			return b
		},
		"rank table broken": func(b []byte) []byte {
			b[8]++ // first idToRank entry
			return b
		},
		"order broken": func(b []byte) []byte {
			// Swap the two halves of the permutation tables so ranks
			// no longer follow sorted order.
			n := len(strs)
			copy(b[8:8+4*n], b[8+4*n:8+8*n])
			return b
		},
	}
	for name, corrupt := range cases {
		blob := corrupt(append([]byte(nil), good...))
		if _, err := OpenPacked(blob); err == nil {
			t.Errorf("%s: OpenPacked accepted corrupt blob", name)
		}
	}
	if _, err := OpenPacked(good); err != nil {
		t.Fatalf("control: OpenPacked rejected valid blob: %v", err)
	}
}

// FuzzOpenPacked checks that OpenPacked never panics, and that every blob
// it accepts serves each ID, and each ID's string back, without panicking.
func FuzzOpenPacked(f *testing.F) {
	f.Add(Pack(nil))
	f.Add(Pack([]string{"catalog", "cd", "title", "composer", "price"}))
	many := make([]string, 40)
	for i := range many {
		many[i] = fmt.Sprintf("name%03d", i)
	}
	f.Add(Pack(many))
	f.Fuzz(func(t *testing.T, blob []byte) {
		p, err := OpenPacked(blob)
		if err != nil {
			return
		}
		strs := p.Strings()
		for id, s := range strs {
			if got := p.String(ID(id)); got != s {
				t.Fatalf("String(%d) = %q, Strings()[%d] = %q", id, got, id, s)
			}
			if got := p.Lookup(s); got != ID(id) {
				t.Fatalf("Lookup(%q) = %d, want %d", s, got, id)
			}
		}
	})
}
