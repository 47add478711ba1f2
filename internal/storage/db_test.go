package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

func openTemp(t *testing.T) (*DB, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.db")
	db, err := Open(path, nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return db, path
}

func openMem(t *testing.T) *DB {
	t.Helper()
	db, err := Open("", nil)
	if err != nil {
		t.Fatalf("Open(mem): %v", err)
	}
	return db
}

func TestPutGetBasic(t *testing.T) {
	db := openMem(t)
	defer db.Close()
	if err := db.Put([]byte("cd"), []byte("posting")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	v, ok, err := db.Get([]byte("cd"))
	if err != nil || !ok || string(v) != "posting" {
		t.Fatalf("Get = %q %v %v", v, ok, err)
	}
	if _, ok, _ := db.Get([]byte("dvd")); ok {
		t.Fatal("Get(dvd) found a value")
	}
	if db.Len() != 1 {
		t.Fatalf("Len = %d, want 1", db.Len())
	}
}

func TestEmptyAndHugeKeys(t *testing.T) {
	db := openMem(t)
	defer db.Close()
	if err := db.Put(nil, []byte("v")); err == nil {
		t.Error("empty key accepted")
	}
	if err := db.Put(bytes.Repeat([]byte("k"), MaxKeyLen+1), []byte("v")); err != ErrKeyTooLarge {
		t.Errorf("huge key error = %v", err)
	}
	if err := db.Put([]byte("k"), nil); err != nil {
		t.Errorf("empty value rejected: %v", err)
	}
	v, ok, _ := db.Get([]byte("k"))
	if !ok || len(v) != 0 {
		t.Errorf("empty value round trip = %q %v", v, ok)
	}
}

func TestLargeValuesOverflow(t *testing.T) {
	db := openMem(t)
	defer db.Close()
	sizes := []int{maxInlineCell, maxInlineCell + 1, PageSize, 3 * PageSize, 10*PageSize + 17}
	vals := make(map[string][]byte)
	for _, sz := range sizes {
		key := fmt.Sprintf("key-%08d", sz)
		val := make([]byte, sz)
		for i := range val {
			val[i] = byte(i * 31)
		}
		if err := db.Put([]byte(key), val); err != nil {
			t.Fatalf("Put(%d bytes): %v", sz, err)
		}
		vals[key] = val
	}
	for key, val := range vals {
		got, ok, err := db.Get([]byte(key))
		if err != nil || !ok {
			t.Fatalf("Get(%d bytes) = %v %v", len(val), ok, err)
		}
		if !bytes.Equal(got, val) {
			t.Fatalf("value of size %d corrupted", len(val))
		}
	}
}

// TestManyKeysSplits spreads enough keys over many leaves and branch cells
// that every lookup crosses page boundaries.
func TestManyKeysSplits(t *testing.T) {
	db := openMem(t)
	defer db.Close()
	const n = 5000
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("key-%06d", i))
		val := []byte(fmt.Sprintf("value-%d", i))
		if err := db.Put(key, val); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	if db.Len() != n {
		t.Fatalf("Len = %d, want %d", db.Len(), n)
	}
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("key-%06d", i))
		v, ok, err := db.Get(key)
		if err != nil || !ok {
			t.Fatalf("Get(%s) = %v %v", key, ok, err)
		}
		if want := fmt.Sprintf("value-%d", i); string(v) != want {
			t.Fatalf("Get(%s) = %q, want %q", key, v, want)
		}
	}
}

// TestModelBasedRandomOps builds a store from a random key set with random
// values, some overflow-sized, and checks random lookups of present and
// absent keys and a full scan against a map model.
func TestModelBasedRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	db := openMem(t)
	defer db.Close()
	model := make(map[string]string)
	for len(model) < 300 {
		n := rng.Intn(200)
		if rng.Intn(10) == 0 {
			n = rng.Intn(3 * PageSize) // sometimes overflow-sized
		}
		v := make([]byte, n)
		rng.Read(v)
		model[fmt.Sprintf("k%04d", rng.Intn(1500))] = string(v)
	}
	wantKeys := make([]string, 0, len(model))
	for k := range model {
		wantKeys = append(wantKeys, k)
	}
	sort.Strings(wantKeys)
	for _, k := range wantKeys {
		if err := db.Put([]byte(k), []byte(model[k])); err != nil {
			t.Fatalf("Put(%s): %v", k, err)
		}
	}
	for op := 0; op < 4000; op++ {
		k := fmt.Sprintf("k%04d", rng.Intn(1500))
		v, ok, err := db.Get([]byte(k))
		if err != nil {
			t.Fatalf("op %d: Get: %v", op, err)
		}
		want, wantOK := model[k]
		if ok != wantOK || (ok && string(v) != want) {
			t.Fatalf("op %d: Get(%s) mismatch", op, k)
		}
	}
	if db.Len() != len(model) {
		t.Fatalf("Len = %d, model has %d", db.Len(), len(model))
	}
	c := db.NewCursor()
	i := 0
	for ok := c.First(); ok; ok = c.Next() {
		if i >= len(wantKeys) {
			t.Fatalf("cursor yields extra key %q", c.Key())
		}
		if string(c.Key()) != wantKeys[i] {
			t.Fatalf("cursor key %d = %q, want %q", i, c.Key(), wantKeys[i])
		}
		if string(c.Value()) != model[wantKeys[i]] {
			t.Fatalf("cursor value mismatch at %q", c.Key())
		}
		i++
	}
	if err := c.Err(); err != nil {
		t.Fatalf("cursor error: %v", err)
	}
	if i != len(wantKeys) {
		t.Fatalf("cursor yielded %d keys, want %d", i, len(wantKeys))
	}
}

func TestPersistence(t *testing.T) {
	db, path := openTemp(t)
	const n = 2000
	big := bytes.Repeat([]byte("x"), 2*PageSize)
	db.Put([]byte("big"), big)
	for i := 0; i < n; i++ {
		db.Put([]byte(fmt.Sprintf("key-%05d", i)), []byte(fmt.Sprintf("val-%d", i)))
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	db2, err := Open(path, nil)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	if db2.Len() != n+1 {
		t.Fatalf("Len after reopen = %d, want %d", db2.Len(), n+1)
	}
	for i := 0; i < n; i += 97 {
		v, ok, err := db2.Get([]byte(fmt.Sprintf("key-%05d", i)))
		if err != nil || !ok || string(v) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("Get after reopen: %q %v %v", v, ok, err)
		}
	}
	v, ok, _ := db2.Get([]byte("big"))
	if !ok || !bytes.Equal(v, big) {
		t.Fatal("big value lost after reopen")
	}
}

func TestSmallCachePersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "small.db")
	db, err := Open(path, &Options{CachePages: 8})
	if err != nil {
		t.Fatal(err)
	}
	const n = 3000
	for i := 0; i < n; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key-%05d", i)), []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	// Read back with the tiny cache forcing constant eviction/reload.
	for i := 0; i < n; i += 13 {
		v, ok, err := db.Get([]byte(fmt.Sprintf("key-%05d", i)))
		if err != nil || !ok || string(v) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("Get %d = %q %v %v", i, v, ok, err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(path, &Options{CachePages: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Len() != n {
		t.Fatalf("Len = %d, want %d", db2.Len(), n)
	}
}

func TestCorruptFileRejected(t *testing.T) {
	dir := t.TempDir()
	cases := map[string][]byte{
		"badmagic.db": append([]byte("WRONGMAG"), make([]byte, PageSize-8)...),
		"badsize.db":  make([]byte, PageSize+100),
	}
	for name, data := range cases {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(path, nil); err == nil {
			t.Errorf("%s: Open accepted corrupt file", name)
		}
	}
}

func TestClosedDBRejectsOps(t *testing.T) {
	db := openMem(t)
	db.Close()
	if err := db.Put([]byte("k"), []byte("v")); err != ErrClosed {
		t.Errorf("Put after Close: %v", err)
	}
	if _, _, err := db.Get([]byte("k")); err != ErrClosed {
		t.Errorf("Get after Close: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Errorf("double Close: %v", err)
	}
}

func TestReadOnlyOpen(t *testing.T) {
	db, path := openTemp(t)
	db.Put([]byte("k"), []byte("v"))
	db.Close()
	ro, err := Open(path, &Options{ReadOnly: true})
	if err != nil {
		t.Fatalf("read-only open: %v", err)
	}
	v, ok, err := ro.Get([]byte("k"))
	if err != nil || !ok || string(v) != "v" {
		t.Fatalf("Get = %q %v %v", v, ok, err)
	}
	if err := ro.Put([]byte("x"), []byte("y")); err != ErrReadOnly {
		t.Errorf("Put on read-only DB: %v, want ErrReadOnly", err)
	}
	if err := ro.Close(); err != nil {
		t.Errorf("Close on read-only DB: %v", err)
	}
}
