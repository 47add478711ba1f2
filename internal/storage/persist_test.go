package storage

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

// putKeys returns a save function writing the keys prefix00000 to
// prefix<n-1>, in ascending order.
func putKeys(prefix string, n int) func(*DB) error {
	return func(db *DB) error {
		for i := 0; i < n; i++ {
			if err := db.Put([]byte(fmt.Sprintf("%s%05d", prefix, i)), []byte("v")); err != nil {
				return err
			}
		}
		return nil
	}
}

func TestPersist(t *testing.T) {
	t.Run("replaces an existing store", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "s.db")
		if err := Persist(path, putKeys("old", 50)); err != nil {
			t.Fatal(err)
		}
		if err := Persist(path, putKeys("new", 20)); err != nil {
			t.Fatal(err)
		}
		db, err := Open(path, &Options{ReadOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		if n, err := db.CountPrefix([]byte("old")); err != nil || n != 0 {
			t.Errorf("%d old keys survived the rewrite (%v)", n, err)
		}
		if n, err := db.CountPrefix([]byte("new")); err != nil || n != 20 {
			t.Errorf("%d new keys, want 20 (%v)", n, err)
		}
	})

	t.Run("a failing save leaves no file", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "s.db")
		if err := Persist(path, putKeys("old", 50)); err != nil {
			t.Fatal(err)
		}
		boom := errors.New("boom")
		err := Persist(path, func(db *DB) error {
			if err := putKeys("half", 30)(db); err != nil {
				return err
			}
			return boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("Persist = %v, want the save error", err)
		}
		if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("file left behind after a failed save: %v", err)
		}
	})

	t.Run("the written file passes Check", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "s.db")
		if err := Persist(path, putKeys("k", 4000)); err != nil {
			t.Fatal(err)
		}
		db, err := Open(path, &Options{ReadOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		if err := db.Check(); err != nil {
			t.Fatalf("Check: %v", err)
		}
		if n, err := db.CountPrefix([]byte("k")); err != nil || n != 4000 {
			t.Errorf("CountPrefix = %d, %v; want 4000", n, err)
		}
	})
}
