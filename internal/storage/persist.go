package storage

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
)

// Persist writes a fresh store at path through save, then reopens it
// read-only and verifies it with Check. A store already at path is removed,
// never updated: keys of an earlier collection must not survive into this
// one, and a file in a retired format must not stop the rebuild that
// upgrades it. A store that fails to write or to verify is removed, so a
// failed Persist leaves no file behind.
func Persist(path string, save func(*DB) error) error {
	if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	if err := writeChecked(path, save); err != nil {
		os.Remove(path) // best effort: the write error is the one to report
		return fmt.Errorf("storage: writing %s: %w", path, err)
	}
	return nil
}

func writeChecked(path string, save func(*DB) error) error {
	s, err := Open(path, nil)
	if err != nil {
		return err
	}
	if err := save(s); err != nil {
		s.Close()
		return err
	}
	if err := s.Close(); err != nil {
		return err
	}
	if s, err = Open(path, &Options{ReadOnly: true}); err != nil {
		return err
	}
	if err := s.Check(); err != nil {
		s.Close()
		return err
	}
	return s.Close()
}
