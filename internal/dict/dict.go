// Package dict provides string interning dictionaries.
//
// The data tree, the schema, and the indexes all refer to element names and
// terms by small integer identifiers instead of strings. A Dict maps strings
// to dense int32 identifiers and back. Two dictionaries are used throughout
// the system — one for element names (struct labels) and one for terms (text
// labels) — mirroring the paper's separate indexes I_struct and I_text.
package dict

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// ID identifies an interned string. IDs are dense and start at 0.
// The zero Dict assigns the first interned string the ID 0.
type ID = int32

// None is returned by Lookup when a string has not been interned.
const None ID = -1

// Dict is an append-only string interning table. It is safe for concurrent
// use: lookups take a read lock, interning takes a write lock.
type Dict struct {
	mu      sync.RWMutex
	strings []string
	ids     map[string]ID
}

// New returns an empty dictionary.
func New() *Dict {
	return &Dict{ids: make(map[string]ID)}
}

// Intern returns the ID for s, assigning a fresh one if s is new.
func (d *Dict) Intern(s string) ID {
	d.mu.RLock()
	id, ok := d.ids[s]
	d.mu.RUnlock()
	if ok {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.ids[s]; ok {
		return id
	}
	id = ID(len(d.strings))
	d.strings = append(d.strings, s)
	d.ids[s] = id
	return id
}

// Lookup returns the ID for s, or None if s has not been interned.
func (d *Dict) Lookup(s string) ID {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if id, ok := d.ids[s]; ok {
		return id
	}
	return None
}

// String returns the string for id. It panics if id is out of range.
func (d *Dict) String(id ID) string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.strings[id]
}

// Len reports the number of interned strings.
func (d *Dict) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.strings)
}

// Strings returns a copy of all interned strings indexed by ID.
func (d *Dict) Strings() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]string, len(d.strings))
	copy(out, d.strings)
	return out
}

// Sorted returns all interned strings in lexicographic order.
func (d *Dict) Sorted() []string {
	out := d.Strings()
	sort.Strings(out)
	return out
}

// ErrNotFound reports a lookup of a string that was never interned.
var ErrNotFound = errors.New("dict: string not found")

// MustLookup is like Lookup but returns ErrNotFound instead of None.
func (d *Dict) MustLookup(s string) (ID, error) {
	if id := d.Lookup(s); id != None {
		return id, nil
	}
	return None, fmt.Errorf("%w: %q", ErrNotFound, s)
}
