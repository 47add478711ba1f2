package storage

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// buildMMapFixture writes a multi-level tree with a mix of inline and
// overflow values and returns its path plus the expected contents.
func buildMMapFixture(t *testing.T) (string, map[string][]byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "mmap.db")
	db, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string][]byte)
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("key-%05d", i)
		val := bytes.Repeat([]byte{byte(i)}, 1+i%60)
		if i%97 == 0 {
			// Overflow chains: values larger than a page.
			val = bytes.Repeat([]byte{byte(i)}, PageSize+i)
		}
		if err := db.Put([]byte(key), val); err != nil {
			t.Fatal(err)
		}
		want[key] = val
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return path, want
}

// TestMMapReadsMatchPager reopens the same file through the pager and
// through a memory mapping and requires identical contents from Get,
// cursor scans, and the counting operations.
func TestMMapReadsMatchPager(t *testing.T) {
	path, want := buildMMapFixture(t)

	pager, err := Open(path, &Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer pager.Close()
	mapped, err := Open(path, &Options{ReadOnly: true, MMap: true})
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()

	if pager.MMapped() {
		t.Fatal("pager-mode database claims to be memory-mapped")
	}
	if runtime.GOOS == "linux" && !mapped.MMapped() {
		t.Fatal("MMap option did not map the file on linux")
	}
	if !mapped.MMapped() {
		t.Log("mmap unavailable on this platform; exercising the fallback path")
	}

	if mapped.Len() != pager.Len() || mapped.Len() != len(want) {
		t.Fatalf("Len: mmap %d, pager %d, want %d", mapped.Len(), pager.Len(), len(want))
	}
	for key, val := range want {
		got, ok, err := mapped.Get([]byte(key))
		if err != nil || !ok {
			t.Fatalf("mmap Get(%q): ok=%v err=%v", key, ok, err)
		}
		if !bytes.Equal(got, val) {
			t.Fatalf("mmap Get(%q): %d bytes, want %d", key, len(got), len(val))
		}
	}

	// Full scans must agree byte for byte and in order.
	var pKeys, mKeys [][]byte
	collect := func(db *DB, out *[][]byte) {
		err := db.Scan(nil, func(k, v []byte) bool {
			*out = append(*out, append([]byte(nil), k...))
			if !bytes.Equal(v, want[string(k)]) {
				t.Fatalf("scan value mismatch at %q", k)
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	collect(pager, &pKeys)
	collect(mapped, &mKeys)
	if len(pKeys) != len(mKeys) {
		t.Fatalf("scan lengths differ: pager %d, mmap %d", len(pKeys), len(mKeys))
	}
	for i := range pKeys {
		if !bytes.Equal(pKeys[i], mKeys[i]) {
			t.Fatalf("scan order differs at %d: pager %q, mmap %q", i, pKeys[i], mKeys[i])
		}
	}

	// Counting operations descend through branch pages; both paths must
	// agree on ranks and range counts.
	for _, key := range []string{"key-00000", "key-00999", "key-01999", "nope"} {
		pr, perr := pager.Rank([]byte(key))
		mr, merr := mapped.Rank([]byte(key))
		if pr != mr || (perr == nil) != (merr == nil) {
			t.Fatalf("Rank(%q): pager (%d, %v), mmap (%d, %v)", key, pr, perr, mr, merr)
		}
	}
	pc, err := pager.CountPrefix([]byte("key-0001"))
	if err != nil {
		t.Fatal(err)
	}
	mc, err := mapped.CountPrefix([]byte("key-0001"))
	if err != nil {
		t.Fatal(err)
	}
	if pc != mc || mc != 10 {
		t.Fatalf("CountPrefix: pager %d, mmap %d, want 10", pc, mc)
	}
}

// TestMMapPageStats checks the counters a mapped database reports: logical
// page accesses keep accumulating (they drive the facade's pager.reads
// metric) while evictions stay zero, because nothing is ever cached.
func TestMMapPageStats(t *testing.T) {
	path, want := buildMMapFixture(t)
	db, err := Open(path, &Options{ReadOnly: true, MMap: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if !db.MMapped() {
		t.Skip("mmap unavailable on this platform")
	}
	for key := range want {
		if _, _, err := db.Get([]byte(key)); err != nil {
			t.Fatal(err)
		}
	}
	reads, evictions := db.PageStats()
	if reads == 0 {
		t.Fatal("mapped database reported zero logical page accesses after reading every key")
	}
	if evictions != 0 {
		t.Fatalf("mapped database reported %d evictions, want 0", evictions)
	}
}

// TestMMapRequiresReadOnly: the MMap option is silently ignored without
// ReadOnly, and the existing file still takes no writes.
func TestMMapRequiresReadOnly(t *testing.T) {
	path, _ := buildMMapFixture(t)
	db, err := Open(path, &Options{MMap: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.MMapped() {
		t.Fatal("writable database must not be memory-mapped")
	}
	if err := db.Put([]byte("z-extra"), []byte("v")); err != ErrReadOnly {
		t.Fatalf("Put on an existing file: %v, want ErrReadOnly", err)
	}
	if _, ok, err := db.Get([]byte("key-00000")); err != nil || !ok {
		t.Fatalf("Get after a refused Put: ok=%v err=%v", ok, err)
	}
}

// TestMMapRejectsWrites: a mapped database refuses mutation like any other
// read-only database.
func TestMMapRejectsWrites(t *testing.T) {
	path, _ := buildMMapFixture(t)
	db, err := Open(path, &Options{ReadOnly: true, MMap: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Put([]byte("k"), []byte("v")); err != ErrReadOnly {
		t.Fatalf("Put on read-only mapped database: %v, want ErrReadOnly", err)
	}
}

// TestMMapInMemoryIgnored: a purely in-memory database has no file to map;
// the option is a no-op rather than an error.
func TestMMapInMemoryIgnored(t *testing.T) {
	db, err := Open("", &Options{MMap: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.MMapped() {
		t.Fatal("in-memory database claims to be memory-mapped")
	}
}

// TestMMapCloseUnmaps: Close releases the mapping and further reads fail
// with ErrClosed instead of faulting on unmapped memory.
func TestMMapCloseUnmaps(t *testing.T) {
	path, _ := buildMMapFixture(t)
	db, err := Open(path, &Options{ReadOnly: true, MMap: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Get([]byte("key-00000")); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Get([]byte("key-00000")); err != ErrClosed {
		t.Fatalf("Get after Close: %v, want ErrClosed", err)
	}
	// The file must still be intact for a fresh open.
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
	re, err := Open(path, &Options{ReadOnly: true, MMap: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, ok, err := re.Get([]byte("key-00000")); err != nil || !ok {
		t.Fatalf("reopen after Close: ok=%v err=%v", ok, err)
	}
}
