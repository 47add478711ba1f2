package storage

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"
)

// openCounted returns a fresh in-memory database seeded with n keys
// "k%06d" → small values.
func openCounted(t *testing.T, n int) *DB {
	t.Helper()
	db, err := Open("", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	for i := 0; i < n; i++ {
		if err := db.Put(fmt.Appendf(nil, "k%06d", i), fmt.Appendf(nil, "v%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestCountRange(t *testing.T) {
	const n = 3000
	db := openCounted(t, n)
	if err := db.Check(); err != nil {
		t.Fatal(err)
	}
	key := func(i int) []byte { return fmt.Appendf(nil, "k%06d", i) }
	cases := []struct {
		lo, hi []byte
		want   int
	}{
		{nil, nil, n},
		{key(0), nil, n},
		{nil, key(0), 0},
		{key(100), key(200), 100},
		{key(0), key(1), 1},
		{key(n - 1), nil, 1},
		{key(200), key(100), 0},
		{key(n), nil, 0},
		{[]byte("a"), []byte("j"), 0},
		{[]byte("l"), nil, 0},
	}
	for _, c := range cases {
		got, err := db.CountRange(c.lo, c.hi)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("CountRange(%q, %q) = %d, want %d", c.lo, c.hi, got, c.want)
		}
	}
	if got, err := db.CountPrefix([]byte("k")); err != nil || got != n {
		t.Fatalf("CountPrefix(k) = %d, %v; want %d", got, err, n)
	}
	if got, err := db.CountPrefix([]byte("k0001")); err != nil || got != 100 {
		t.Fatalf("CountPrefix(k0001) = %d, %v; want 100", got, err)
	}
	for _, i := range []int{0, 1, 57, n / 2, n - 1} {
		if got, err := db.Rank(key(i)); err != nil || got != i {
			t.Fatalf("Rank(%d) = %d, %v", i, got, err)
		}
	}
}

func TestCountedFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.db")
	db, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if err := db.Put(fmt.Appendf(nil, "k%06d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	ro, err := Open(path, &Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if err := ro.Check(); err != nil {
		t.Fatal(err)
	}
	if got, err := ro.CountPrefix([]byte("k")); err != nil || got != 2000 {
		t.Fatalf("CountPrefix = %d, %v", got, err)
	}
}

func TestSeekRank(t *testing.T) {
	const n = 5000
	db := openCounted(t, n)
	c := db.NewCursor()
	for _, r := range []int{0, 1, 17, n / 3, n - 2, n - 1} {
		if !c.SeekRank(r) {
			t.Fatalf("SeekRank(%d) failed: %v", r, c.Err())
		}
		want := fmt.Sprintf("k%06d", r)
		if string(c.Key()) != want {
			t.Fatalf("SeekRank(%d) = %q, want %q", r, c.Key(), want)
		}
	}
	if c.SeekRank(n) || c.SeekRank(-1) {
		t.Fatal("SeekRank out of range reported valid")
	}
	if c.Err() != nil {
		t.Fatal(c.Err())
	}
	// SeekRank composes with Next: iterate from an offset.
	if !c.SeekRank(n - 3) {
		t.Fatal(c.Err())
	}
	count := 1
	for c.Next() {
		count++
	}
	if count != 3 {
		t.Fatalf("iterated %d keys from rank %d, want 3", count, n-3)
	}
}

// TestCountPageOpsLogarithmic pins the asymptotic claim of the counter
// format: counting a key range and jumping to a rank touch O(log n) pages,
// while materializing a large overflow-chained value costs a page per hop.
// Page-op deltas are deterministic, unlike timings.
func TestCountPageOpsLogarithmic(t *testing.T) {
	const n = 20000
	db := openCounted(t, n)
	// One overflow-chained value: ~64 KiB spans ~16 overflow pages.
	big := bytes.Repeat([]byte{7}, 64*1024)
	if err := db.Put([]byte("k0bigvalue"), big); err != nil {
		t.Fatal(err)
	}

	// Generous bound on the tree height: fanout is >= branchFanout, keys
	// per leaf >= 4, so height is far below 16 for 20k keys.
	const maxHeight = 16

	before := db.PageOps()
	if _, err := db.CountRange([]byte("k000100"), []byte("k019000")); err != nil {
		t.Fatal(err)
	}
	countOps := db.PageOps() - before
	if countOps > 2*maxHeight {
		t.Errorf("CountRange touched %d pages, want <= %d (two descents)", countOps, 2*maxHeight)
	}

	c := db.NewCursor()
	before = db.PageOps()
	if !c.SeekRank(n - 5) {
		t.Fatal(c.Err())
	}
	seekOps := db.PageOps() - before
	if seekOps > maxHeight+2 {
		t.Errorf("SeekRank touched %d pages, want <= %d (one descent)", seekOps, maxHeight+2)
	}

	// ValueHeader reads at most the descent plus one overflow page ...
	before = db.PageOps()
	hdr, ok, err := db.ValueHeader([]byte("k0bigvalue"), 16)
	if err != nil || !ok || len(hdr) != 16 || hdr[0] != 7 {
		t.Fatalf("ValueHeader = %v, %v, %v", hdr, ok, err)
	}
	hdrOps := db.PageOps() - before
	if hdrOps > maxHeight+2 {
		t.Errorf("ValueHeader touched %d pages, want <= %d", hdrOps, maxHeight+2)
	}

	// ... while Get materializes the whole chain: strictly more page ops
	// than the header read, one per overflow hop.
	before = db.PageOps()
	if _, _, err := db.Get([]byte("k0bigvalue")); err != nil {
		t.Fatal(err)
	}
	getOps := db.PageOps() - before
	if getOps <= hdrOps+8 {
		t.Errorf("Get touched %d pages, expected well above ValueHeader's %d", getOps, hdrOps)
	}
}

func TestValueHeader(t *testing.T) {
	db := openMem(t)
	defer db.Close()
	big := bytes.Repeat([]byte{9}, 3*PageSize)
	copy(big, "HEADER")
	if err := db.Put([]byte("big"), big); err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("inline"), []byte("hello world")); err != nil {
		t.Fatal(err)
	}
	hdr, ok, err := db.ValueHeader([]byte("inline"), 5)
	if err != nil || !ok || string(hdr) != "hello" {
		t.Fatalf("inline header = %q, %v, %v", hdr, ok, err)
	}
	hdr, ok, err = db.ValueHeader([]byte("inline"), 100)
	if err != nil || !ok || string(hdr) != "hello world" {
		t.Fatalf("inline clamped header = %q, %v, %v", hdr, ok, err)
	}
	if _, ok, err := db.ValueHeader([]byte("absent"), 5); err != nil || ok {
		t.Fatalf("absent key: ok=%v err=%v", ok, err)
	}
	hdr, ok, err = db.ValueHeader([]byte("big"), 6)
	if err != nil || !ok || string(hdr) != "HEADER" {
		t.Fatalf("overflow header = %q, %v, %v", hdr, ok, err)
	}
}
