package dict

import (
	"fmt"
	"sync"
	"testing"
)

func TestInternAssignsDenseIDs(t *testing.T) {
	d := New()
	for i, s := range []string{"cd", "title", "composer"} {
		if got := d.Intern(s); got != ID(i) {
			t.Fatalf("Intern(%q) = %d, want %d", s, got, i)
		}
	}
	if d.Len() != 3 {
		t.Fatalf("Len = %d, want 3", d.Len())
	}
}

func TestInternIsIdempotent(t *testing.T) {
	d := New()
	a := d.Intern("piano")
	b := d.Intern("piano")
	if a != b {
		t.Fatalf("second Intern returned %d, want %d", b, a)
	}
	if d.Len() != 1 {
		t.Fatalf("Len = %d, want 1", d.Len())
	}
}

func TestLookupMissing(t *testing.T) {
	d := New()
	d.Intern("cd")
	if got := d.Lookup("dvd"); got != None {
		t.Fatalf("Lookup(dvd) = %d, want None", got)
	}
	if _, err := d.MustLookup("dvd"); err == nil {
		t.Fatal("MustLookup(dvd) succeeded, want error")
	}
}

func TestStringRoundTrip(t *testing.T) {
	d := New()
	words := []string{"", "a", "piano concerto", "späte\nzeile", `quo"ted`}
	for _, w := range words {
		id := d.Intern(w)
		if got := d.String(id); got != w {
			t.Fatalf("String(%d) = %q, want %q", id, got, w)
		}
	}
}

func TestStringsReturnsCopy(t *testing.T) {
	d := New()
	d.Intern("x")
	s := d.Strings()
	s[0] = "mutated"
	if d.String(0) != "x" {
		t.Fatal("Strings() aliases internal state")
	}
}

func TestSorted(t *testing.T) {
	d := New()
	for _, s := range []string{"track", "cd", "mc"} {
		d.Intern(s)
	}
	got := d.Sorted()
	want := []string{"cd", "mc", "track"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Sorted = %v, want %v", got, want)
		}
	}
}

func TestConcurrentIntern(t *testing.T) {
	d := New()
	var wg sync.WaitGroup
	const goroutines = 8
	const perG = 200
	ids := make([][]ID, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ids[g] = make([]ID, perG)
			for i := 0; i < perG; i++ {
				ids[g][i] = d.Intern(fmt.Sprintf("w%03d", i))
			}
		}(g)
	}
	wg.Wait()
	if d.Len() != perG {
		t.Fatalf("Len = %d, want %d", d.Len(), perG)
	}
	for g := 1; g < goroutines; g++ {
		for i := 0; i < perG; i++ {
			if ids[g][i] != ids[0][i] {
				t.Fatalf("goroutine %d got ID %d for word %d, goroutine 0 got %d", g, ids[g][i], i, ids[0][i])
			}
		}
	}
}
