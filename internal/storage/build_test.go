package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
)

// TestBuildKeepsEveryKey is the key-losing leaf split's repro, built the
// one way a store is built now: 20 000 ascending keys with 200–1 400-byte
// values, a mix of inline cells and overflow chains. Every key must come
// back through Get, a cursor walk and SeekRank.
func TestBuildKeepsEveryKey(t *testing.T) {
	const n = 20000
	rng := rand.New(rand.NewSource(1))
	db := openMem(t)
	defer db.Close()
	vals := make([][]byte, n)
	key := func(i int) []byte { return fmt.Appendf(nil, "key-%06d", i) }
	for i := range vals {
		vals[i] = make([]byte, 200+rng.Intn(1201))
		rng.Read(vals[i])
		if err := db.Put(key(i), vals[i]); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	if err := db.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	for i, val := range vals {
		if got, ok, err := db.Get(key(i)); err != nil || !ok || !bytes.Equal(got, val) {
			t.Fatalf("Get(%s) = %d bytes, %v, %v", key(i), len(got), ok, err)
		}
	}
	c := db.NewCursor()
	i := 0
	for ok := c.First(); ok; ok = c.Next() {
		if !bytes.Equal(c.Key(), key(i)) || !bytes.Equal(c.Value(), vals[i]) {
			t.Fatalf("cursor entry %d = %s", i, c.Key())
		}
		i++
	}
	if c.Err() != nil || i != n {
		t.Fatalf("cursor walked %d of %d keys: %v", i, n, c.Err())
	}
	for i := range vals {
		if !c.SeekRank(i) || !bytes.Equal(c.Key(), key(i)) {
			t.Fatalf("SeekRank(%d) = %s, %v", i, c.Key(), c.Err())
		}
	}
}

// TestBuildPacksLeaves: equal-size cells fill every leaf but the last to
// the page's capacity, and the tree has no page beyond the leaves, the
// branch pages over them and the meta page.
func TestBuildPacksLeaves(t *testing.T) {
	db := openMem(t)
	defer db.Close()
	const n = 1000
	for i := 0; i < n; i++ {
		if err := db.Put(fmt.Appendf(nil, "k%06d", i), bytes.Repeat([]byte{'v'}, 10)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Check(); err != nil {
		t.Fatal(err)
	}
	perLeaf := (PageSize - hdrSize) / (2 + 3 + 7 + 2 + 10)
	pg, err := db.pager.get(db.root)
	if err != nil {
		t.Fatal(err)
	}
	for pg.data[offType] == pageBranch {
		if pg, err = db.pager.get(leftChild(pg)); err != nil {
			t.Fatal(err)
		}
	}
	leaves := 0
	for {
		leaves++
		next := nextLeaf(pg)
		if next == 0 {
			break
		}
		if nCells(pg) != perLeaf {
			t.Fatalf("leaf %d holds %d cells, want %d", leaves, nCells(pg), perLeaf)
		}
		if pg, err = db.pager.get(next); err != nil {
			t.Fatal(err)
		}
	}
	if want := (n + perLeaf - 1) / perLeaf; leaves != want {
		t.Fatalf("%d leaves, want %d", leaves, want)
	}
	// One branch page holds every leaf: meta, leaves, root.
	if got, want := int(db.pager.nextID), 1+leaves+1; got != want {
		t.Fatalf("%d pages, want %d", got, want)
	}
}

// TestPutRejects pins the write-once contract: a key not above the last
// one, a Put after the first read, and a Put into an existing file each
// fail with their error and leave the store readable.
func TestPutRejects(t *testing.T) {
	path := filepath.Join(t.TempDir(), "once.db")
	db, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"b", "d"} {
		if err := db.Put([]byte(k), []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range []string{"d", "c", "a"} {
		if err := db.Put([]byte(k), []byte("x")); !errors.Is(err, ErrKeyOrder) {
			t.Errorf("Put(%s) after d: %v, want ErrKeyOrder", k, err)
		}
	}
	if err := db.Put([]byte("e"), []byte("e")); err != nil {
		t.Fatalf("Put(e) after refused Puts: %v", err)
	}
	if ok, err := db.Has([]byte("c")); err != nil || ok {
		t.Fatalf("Has(c) = %v, %v; a refused key was stored", ok, err)
	}
	if err := db.Put([]byte("f"), nil); err != ErrReadOnly {
		t.Errorf("Put after a read: %v, want ErrReadOnly", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Put([]byte("g"), nil); err != ErrReadOnly {
		t.Errorf("Put into an existing file: %v, want ErrReadOnly", err)
	}
	if err := db.Check(); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"b", "d", "e"} {
		if v, ok, err := db.Get([]byte(k)); err != nil || !ok || string(v) != k {
			t.Errorf("Get(%s) = %q, %v, %v", k, v, ok, err)
		}
	}
	if db.Len() != 3 {
		t.Errorf("Len = %d, want 3", db.Len())
	}
}
