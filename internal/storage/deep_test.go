package storage

import (
	"fmt"
	"testing"
)

// TestDeepTreeBranchSplits puts enough keys to fill several branch pages
// (a three-level tree) and verifies lookups, ordering, and the structural
// checker across it.
func TestDeepTreeBranchSplits(t *testing.T) {
	db := openMem(t)
	defer db.Close()
	const n = 80_000
	for k := 0; k < n; k++ {
		key := []byte(fmt.Sprintf("k%06d", k))
		if err := db.Put(key, []byte{byte(k), byte(k >> 8)}); err != nil {
			t.Fatalf("Put %d: %v", k, err)
		}
	}
	if db.Len() != n {
		t.Fatalf("Len = %d, want %d", db.Len(), n)
	}
	if err := db.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	// The root must be a branch whose children are branches (depth >= 3).
	root, err := db.pager.get(db.root)
	if err != nil {
		t.Fatal(err)
	}
	if root.data[offType] != pageBranch {
		t.Fatal("root is not a branch")
	}
	child, err := db.pager.get(leftChild(root))
	if err != nil {
		t.Fatal(err)
	}
	if child.data[offType] != pageBranch {
		t.Fatal("tree depth < 3: a single branch page holds every leaf")
	}
	// Spot lookups.
	for i := 0; i < n; i += 997 {
		key := []byte(fmt.Sprintf("k%06d", i))
		v, ok, err := db.Get(key)
		if err != nil || !ok {
			t.Fatalf("Get(%s) = %v %v", key, ok, err)
		}
		if v[0] != byte(i) || v[1] != byte(i>>8) {
			t.Fatalf("Get(%s) wrong value", key)
		}
	}
	// Full ordered scan.
	c := db.NewCursor()
	count := 0
	for ok := c.First(); ok; ok = c.Next() {
		count++
	}
	if c.Err() != nil || count != n {
		t.Fatalf("scan = %d keys, err %v", count, c.Err())
	}
}

// TestHasAndSync checks Has, and that Close, the store's one sync point,
// leaves a file that reopens with the same keys.
func TestHasAndSync(t *testing.T) {
	db, path := openTemp(t)
	db.Put([]byte("k"), []byte("v"))
	if ok, err := db.Has([]byte("k")); err != nil || !ok {
		t.Errorf("Has(k) = %v %v", ok, err)
	}
	if ok, err := db.Has([]byte("missing")); err != nil || ok {
		t.Errorf("Has(missing) = %v %v", ok, err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Has([]byte("k")); err != ErrClosed {
		t.Errorf("Has after close: %v", err)
	}
	re, err := Open(path, &Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if ok, err := re.Has([]byte("k")); err != nil || !ok {
		t.Errorf("Has(k) after reopen = %v %v", ok, err)
	}
}
