package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

func TestCheckOnFreshDB(t *testing.T) {
	empty := openMem(t)
	defer empty.Close()
	if err := empty.Check(); err != nil {
		t.Fatalf("empty DB: %v", err)
	}
	db := openMem(t)
	defer db.Close()
	fill(t, db, 4000)
	if err := db.Check(); err != nil {
		t.Fatalf("after inserts: %v", err)
	}
}

func TestCheckWithOverflow(t *testing.T) {
	db := openMem(t)
	defer db.Close()
	for i := 0; i < 50; i++ {
		val := bytes.Repeat([]byte{byte(i)}, (i%7)*PageSize/2+10)
		if err := db.Put([]byte(fmt.Sprintf("k%03d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
}

// TestCheckAfterRandomWorkload checks stores built from random key sets
// with random value sizes.
func TestCheckAfterRandomWorkload(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for round := 0; round < 6; round++ {
		db := openMem(t)
		for i := 0; i < 800; i++ {
			if rng.Intn(3) == 0 {
				continue
			}
			v := make([]byte, rng.Intn(300<<round))
			rng.Read(v)
			if err := db.Put([]byte(fmt.Sprintf("k%04d", i)), v); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Check(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		db.Close()
	}
}

func TestCheckAfterReopen(t *testing.T) {
	db, path := openTemp(t)
	db.Put([]byte("big"), bytes.Repeat([]byte("x"), 3*PageSize))
	fill(t, db, 2500)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if err := db2.Check(); err != nil {
		t.Fatalf("after reopen: %v", err)
	}
}

func TestCheckDetectsCorruption(t *testing.T) {
	db := openMem(t)
	defer db.Close()
	fill(t, db, 100)
	if err := db.Check(); err != nil {
		t.Fatal(err)
	}
	// Corrupt a leaf in place: swap two cell pointers to break ordering.
	pg, err := db.pager.get(db.root)
	if err != nil {
		t.Fatal(err)
	}
	for pg.data[offType] == pageBranch {
		pg, err = db.pager.get(leftChild(pg))
		if err != nil {
			t.Fatal(err)
		}
	}
	if nCells(pg) < 2 {
		t.Skip("leaf too small to corrupt")
	}
	o0 := getU16(pg.data, hdrSize)
	o1 := getU16(pg.data, hdrSize+2)
	putU16(pg.data, hdrSize, o1)
	putU16(pg.data, hdrSize+2, o0)
	if err := db.Check(); err == nil {
		t.Fatal("Check accepted out-of-order keys")
	}
}

func TestCheckDetectsBadKeyCount(t *testing.T) {
	db := openMem(t)
	defer db.Close()
	fill(t, db, 100)
	db.keys += 5
	if err := db.Check(); err == nil {
		t.Fatal("Check accepted a wrong key count")
	}
}
