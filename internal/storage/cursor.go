package storage

import "bytes"

// Cursor iterates over keys in ascending order. A cursor reads its current
// entry eagerly, so the Key and Value accessors never fail.
type Cursor struct {
	db    *DB
	leaf  uint32
	idx   int
	key   []byte
	value []byte
	valid bool
	err   error
}

// NewCursor returns an unpositioned cursor. Call First or Seek before use.
func (db *DB) NewCursor() *Cursor {
	return &Cursor{db: db}
}

// Err returns the first error the cursor encountered, if any.
func (c *Cursor) Err() error { return c.err }

// Valid reports whether the cursor is positioned on an entry.
func (c *Cursor) Valid() bool { return c.valid }

// Key returns the current key. The slice is owned by the cursor and valid
// until the next positioning call.
func (c *Cursor) Key() []byte { return c.key }

// Value returns the current value, like Key.
func (c *Cursor) Value() []byte { return c.value }

// First positions the cursor at the smallest key.
func (c *Cursor) First() bool {
	c.db.mu.Lock()
	defer c.db.unlock()
	if c.fail(c.db.ready()) {
		return false
	}
	pg, err := c.db.pager.get(c.db.root)
	if c.fail(err) {
		return false
	}
	for pg.data[offType] == pageBranch {
		pg, err = c.db.pager.get(leftChild(pg))
		if c.fail(err) {
			return false
		}
	}
	c.leaf, c.idx = pg.id, 0
	return c.settle(pg)
}

// Seek positions the cursor at the first key >= key.
func (c *Cursor) Seek(key []byte) bool {
	c.db.mu.Lock()
	defer c.db.unlock()
	if c.fail(c.db.ready()) {
		return false
	}
	pg, err := c.db.findLeaf(key)
	if c.fail(err) {
		return false
	}
	i, _ := search(pg, key)
	c.leaf, c.idx = pg.id, i
	return c.settle(pg)
}

// SeekRank positions the cursor at the key with the given zero-based rank
// in ascending key order: the offset jump of paginated serving. One
// root-to-leaf descent over the subtree counters suffices (O(log n)).
func (c *Cursor) SeekRank(rank int) bool {
	c.db.mu.Lock()
	defer c.db.unlock()
	if c.fail(c.db.ready()) {
		return false
	}
	if rank < 0 || rank >= int(c.db.keys) {
		c.valid = false
		c.key, c.value = nil, nil
		return false
	}
	pg, err := c.db.pager.get(c.db.root)
	if c.fail(err) {
		return false
	}
	r := rank
	for pg.data[offType] == pageBranch {
		child := uint32(0)
		if r < int(leftCount(pg)) {
			child = leftChild(pg)
		} else {
			r -= int(leftCount(pg))
			for j := 0; j < nCells(pg); j++ {
				if r < int(branchCellCount(pg, j)) {
					child = branchChild(pg, j)
					break
				}
				r -= int(branchCellCount(pg, j))
			}
		}
		if child == 0 {
			return !c.fail(corruptf("page %d: rank %d beyond subtree counters", pg.id, rank))
		}
		pg, err = c.db.pager.get(child)
		if c.fail(err) {
			return false
		}
	}
	c.leaf, c.idx = pg.id, r
	return c.settle(pg)
}

// Next advances to the next key.
func (c *Cursor) Next() bool {
	c.db.mu.Lock()
	defer c.db.unlock()
	if c.fail(c.db.ready()) {
		return false
	}
	if !c.valid {
		return false
	}
	pg, err := c.db.pager.get(c.leaf)
	if c.fail(err) {
		return false
	}
	c.idx++
	return c.settle(pg)
}

// settle loads the entry at (c.leaf, c.idx), following next-leaf links past
// exhausted or empty leaves. Callers hold the read lock.
func (c *Cursor) settle(pg *page) bool {
	c.valid = false
	for {
		if pg.data[offType] != pageLeaf {
			return !c.fail(corruptf("cursor on non-leaf page %d", pg.id))
		}
		if c.idx < nCells(pg) {
			break
		}
		next := nextLeaf(pg)
		if next == 0 {
			c.key, c.value = nil, nil
			return false
		}
		var err error
		pg, err = c.db.pager.get(next)
		if c.fail(err) {
			return false
		}
		c.leaf, c.idx = pg.id, 0
	}
	c.key = append(c.key[:0], cellKey(pg, c.idx)...)
	val, err := c.db.readValue(pg, c.idx)
	if c.fail(err) {
		return false
	}
	c.value = val
	c.valid = true
	return true
}

func (c *Cursor) fail(err error) bool {
	if err != nil && c.err == nil {
		c.err = err
		c.valid = false
	}
	return err != nil
}

// Scan calls fn for every key with the given prefix, in ascending order,
// stopping early if fn returns false.
func (db *DB) Scan(prefix []byte, fn func(key, value []byte) bool) error {
	c := db.NewCursor()
	for ok := c.Seek(prefix); ok; ok = c.Next() {
		if !bytes.HasPrefix(c.Key(), prefix) {
			break
		}
		if !fn(c.Key(), c.Value()) {
			break
		}
	}
	return c.Err()
}
