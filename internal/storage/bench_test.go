package storage

import (
	"fmt"
	"testing"
)

func benchDB(b *testing.B, n int) *DB {
	b.Helper()
	db, err := Open("", nil)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key-%08d", i)), []byte(fmt.Sprintf("value-%d", i))); err != nil {
			b.Fatal(err)
		}
	}
	b.Cleanup(func() { db.Close() })
	return db
}

func BenchmarkPutSequential(b *testing.B) {
	db, err := Open("", nil)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	val := []byte("posting-payload-00000000")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key-%010d", i)), val); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGet(b *testing.B) {
	const n = 100_000
	db := benchDB(b, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := []byte(fmt.Sprintf("key-%08d", i%n))
		if _, ok, err := db.Get(key); err != nil || !ok {
			b.Fatal(err)
		}
	}
}

func BenchmarkCursorScan(b *testing.B) {
	const n = 100_000
	db := benchDB(b, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := db.NewCursor()
		count := 0
		for ok := c.First(); ok; ok = c.Next() {
			count++
		}
		if count != n {
			b.Fatalf("scanned %d keys", count)
		}
	}
}

func BenchmarkOverflowValues(b *testing.B) {
	db, err := Open("", nil)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	val := make([]byte, 3*PageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key-%010d", i)), val); err != nil {
			b.Fatal(err)
		}
	}
}
