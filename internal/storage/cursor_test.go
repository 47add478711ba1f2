package storage

import (
	"bytes"
	"fmt"
	"testing"
)

func fill(t *testing.T, db *DB, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key-%05d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
}

func TestCursorFullScan(t *testing.T) {
	db := openMem(t)
	defer db.Close()
	fill(t, db, 2500)
	c := db.NewCursor()
	i := 0
	for ok := c.First(); ok; ok = c.Next() {
		want := fmt.Sprintf("key-%05d", i)
		if string(c.Key()) != want {
			t.Fatalf("key %d = %q, want %q", i, c.Key(), want)
		}
		i++
	}
	if c.Err() != nil {
		t.Fatalf("cursor err: %v", c.Err())
	}
	if i != 2500 {
		t.Fatalf("scanned %d keys, want 2500", i)
	}
}

func TestCursorSeek(t *testing.T) {
	db := openMem(t)
	defer db.Close()
	fill(t, db, 100)
	c := db.NewCursor()
	if !c.Seek([]byte("key-00050")) {
		t.Fatal("Seek failed")
	}
	if string(c.Key()) != "key-00050" {
		t.Fatalf("Seek landed on %q", c.Key())
	}
	// Seek between keys lands on the next one.
	if !c.Seek([]byte("key-00050x")) {
		t.Fatal("Seek between keys failed")
	}
	if string(c.Key()) != "key-00051" {
		t.Fatalf("Seek landed on %q, want key-00051", c.Key())
	}
	// Seek beyond the last key is invalid.
	if c.Seek([]byte("zzz")) {
		t.Fatalf("Seek(zzz) landed on %q", c.Key())
	}
	if c.Valid() {
		t.Fatal("cursor valid after seeking past the end")
	}
}

func TestCursorOnEmptyDB(t *testing.T) {
	db := openMem(t)
	defer db.Close()
	c := db.NewCursor()
	if c.First() {
		t.Fatal("First on empty DB succeeded")
	}
	if c.Next() {
		t.Fatal("Next on unpositioned cursor succeeded")
	}
	if c.Err() != nil {
		t.Fatalf("unexpected error: %v", c.Err())
	}
}

func TestScanPrefix(t *testing.T) {
	db := openMem(t)
	defer db.Close()
	for _, k := range []string{"a#1", "a#2", "a#3", "b#1", "b#2"} {
		db.Put([]byte(k), []byte("v"))
	}
	var got []string
	err := db.Scan([]byte("a#"), func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != "a#1" || got[2] != "a#3" {
		t.Fatalf("Scan = %v", got)
	}
	// Early stop.
	got = nil
	db.Scan([]byte("a#"), func(k, v []byte) bool {
		got = append(got, string(k))
		return false
	})
	if len(got) != 1 {
		t.Fatalf("early-stop Scan = %v", got)
	}
}

func TestCursorReadsOverflowValues(t *testing.T) {
	db := openMem(t)
	defer db.Close()
	big := bytes.Repeat([]byte("ov"), PageSize)
	db.Put([]byte("big"), big)
	db.Put([]byte("small"), []byte("s"))
	c := db.NewCursor()
	if !c.First() {
		t.Fatal("First failed")
	}
	if string(c.Key()) != "big" || !bytes.Equal(c.Value(), big) {
		t.Fatal("overflow value not read by cursor")
	}
}
