package storage

// Count and rank operations. They run in O(log n) by descending the tree and
// summing the per-subtree counters on branch pages.

// Rank returns the number of stored keys strictly smaller than key.
func (db *DB) Rank(key []byte) (int, error) {
	db.mu.Lock()
	defer db.unlock()
	if err := db.ready(); err != nil {
		return 0, err
	}
	return db.rankLocked(key)
}

// CountRange returns the number of stored keys k with lo <= k < hi. A nil
// lo means "from the smallest key"; a nil hi means "to the end".
func (db *DB) CountRange(lo, hi []byte) (int, error) {
	db.mu.Lock()
	defer db.unlock()
	if err := db.ready(); err != nil {
		return 0, err
	}
	below := 0
	var err error
	if lo != nil {
		if below, err = db.rankLocked(lo); err != nil {
			return 0, err
		}
	}
	upper := int(db.keys)
	if hi != nil {
		if upper, err = db.rankLocked(hi); err != nil {
			return 0, err
		}
	}
	return max(upper-below, 0), nil
}

// CountPrefix returns the number of stored keys that start with prefix.
func (db *DB) CountPrefix(prefix []byte) (int, error) {
	return db.CountRange(prefix, prefixSuccessor(prefix))
}

// prefixSuccessor returns the smallest key greater than every key with the
// given prefix, or nil when no such key exists (all-0xFF prefixes).
func prefixSuccessor(prefix []byte) []byte {
	for i := len(prefix) - 1; i >= 0; i-- {
		if prefix[i] != 0xFF {
			succ := append([]byte(nil), prefix[:i+1]...)
			succ[i]++
			return succ
		}
	}
	return nil
}

// rankLocked counts the keys strictly below key. Callers hold db.mu.
func (db *DB) rankLocked(key []byte) (int, error) {
	pg, err := db.pager.get(db.root)
	if err != nil {
		return 0, err
	}
	total := 0
	for pg.data[offType] == pageBranch {
		idx := childIndexFor(pg, key)
		// Children left of the descent target hold only smaller keys;
		// their counters contribute without descending.
		if idx >= 0 {
			total += int(leftCount(pg))
		}
		for j := 0; j < idx; j++ {
			total += int(branchCellCount(pg, j))
		}
		pg, err = db.pager.get(childAt(pg, idx))
		if err != nil {
			return 0, err
		}
	}
	if pg.data[offType] != pageLeaf {
		return 0, corruptf("page %d: expected leaf, got type %d", pg.id, pg.data[offType])
	}
	i, _ := search(pg, key)
	return total + i, nil
}

// ValueHeader returns up to max leading bytes of the value stored under
// key, without materializing overflow chains: inline values are sliced in
// place and overflowed values read only their first overflow page. It
// reports whether the key exists. The callers use it to decode posting-list
// headers (counts) from values whose full materialization would cost a
// page read per overflow hop.
func (db *DB) ValueHeader(key []byte, max int) ([]byte, bool, error) {
	db.mu.Lock()
	defer db.unlock()
	if err := db.ready(); err != nil {
		return nil, false, err
	}
	pg, err := db.findLeaf(key)
	if err != nil {
		return nil, false, err
	}
	i, found := search(pg, key)
	if !found {
		return nil, false, nil
	}
	val, ovfLen, ovfPage := leafCellValue(pg, i)
	if ovfPage == 0 {
		if max > len(val) {
			max = len(val)
		}
		if db.mem != nil {
			return val[:max], true, nil
		}
		return append([]byte(nil), val[:max]...), true, nil
	}
	opg, err := db.pager.get(ovfPage)
	if err != nil {
		return nil, false, err
	}
	if opg.data[offType] != pageOverflow {
		return nil, false, corruptf("page %d: expected overflow, got type %d", ovfPage, opg.data[offType])
	}
	dlen := int(getU16(opg.data, ovfOffLen))
	if max > dlen {
		max = dlen
	}
	if max > int(ovfLen) {
		max = int(ovfLen)
	}
	if db.mem != nil {
		return opg.data[ovfHdrSize : ovfHdrSize+max], true, nil
	}
	return append([]byte(nil), opg.data[ovfHdrSize:ovfHdrSize+max]...), true, nil
}
