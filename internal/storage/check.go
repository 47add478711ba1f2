package storage

import (
	"bytes"
	"fmt"
)

// Check verifies the structural invariants of the B+tree and returns the
// first violation found, or nil:
//
//   - every reachable page has a valid type,
//   - keys are strictly ascending within every page,
//   - every key in a subtree lies within the separator bounds of its parent,
//   - the next-leaf chain visits exactly the leaves, in key order,
//   - the stored key count matches the number of leaf cells,
//   - overflow chains terminate and carry the advertised lengths,
//   - every branch page is flagged as counted and every per-subtree counter
//     equals the key count of the leaves below it.
//
// Check is intended for tests and for verifying files of unknown
// provenance; it reads every page once.
func (db *DB) Check() error {
	db.mu.Lock()
	defer db.unlock()
	if err := db.ready(); err != nil {
		return err
	}
	c := &checker{db: db}
	firstLeaf, lastLeaf, _, err := c.walk(db.root, nil, nil)
	if err != nil {
		return err
	}
	_ = lastLeaf
	// Follow the leaf chain and compare with the leaves found by the
	// tree walk.
	chain := 0
	for id := firstLeaf; id != 0; {
		pg, err := db.pager.get(id)
		if err != nil {
			return err
		}
		if pg.data[offType] != pageLeaf {
			return corruptf("leaf chain reaches non-leaf page %d", id)
		}
		if chain >= len(c.leaves) || c.leaves[chain] != id {
			return corruptf("leaf chain order diverges at page %d", id)
		}
		chain++
		id = nextLeaf(pg)
	}
	if chain != len(c.leaves) {
		return corruptf("leaf chain visits %d of %d leaves", chain, len(c.leaves))
	}
	if c.keys != int(db.keys) {
		return corruptf("meta key count %d, leaves hold %d", db.keys, c.keys)
	}
	return nil
}

type checker struct {
	db     *DB
	leaves []uint32
	keys   int
}

// walk validates the subtree rooted at id; every key must satisfy
// low <= key < high (nil bounds are open). It returns the first and last
// leaf page of the subtree and the subtree's total key count.
func (c *checker) walk(id uint32, low, high []byte) (uint32, uint32, int, error) {
	pg, err := c.db.pager.get(id)
	if err != nil {
		return 0, 0, 0, err
	}
	n := nCells(pg)
	var prev []byte
	for i := 0; i < n; i++ {
		key := cellKey(pg, i)
		if prev != nil && bytes.Compare(prev, key) >= 0 {
			return 0, 0, 0, corruptf("page %d: keys out of order at cell %d", id, i)
		}
		if low != nil && bytes.Compare(key, low) < 0 {
			return 0, 0, 0, corruptf("page %d: key below separator bound", id)
		}
		if high != nil && bytes.Compare(key, high) >= 0 {
			return 0, 0, 0, corruptf("page %d: key above separator bound", id)
		}
		prev = append(prev[:0], key...)
	}
	switch pg.data[offType] {
	case pageLeaf:
		c.leaves = append(c.leaves, id)
		c.keys += n
		for i := 0; i < n; i++ {
			if err := c.checkOverflow(pg, i); err != nil {
				return 0, 0, 0, err
			}
		}
		return id, id, n, nil
	case pageBranch:
		if n == 0 {
			return 0, 0, 0, corruptf("page %d: branch without separators", id)
		}
		if pg.data[offFlags]&pageFlagCounted == 0 {
			return 0, 0, 0, corruptf("page %d: branch page without the subtree-counter flag", id)
		}
		// Collect the key bounds per child. Separator keys live in the
		// subtree to their right.
		children := make([]uint32, 0, n+1)
		children = append(children, leftChild(pg))
		for i := 0; i < n; i++ {
			children = append(children, branchChild(pg, i))
		}
		var first, last uint32
		total := 0
		for i, child := range children {
			childLow, childHigh := low, high
			if i > 0 {
				childLow = append([]byte(nil), cellKey(pg, i-1)...)
			}
			if i < n {
				childHigh = append([]byte(nil), cellKey(pg, i)...)
			}
			f, l, sub, err := c.walk(child, childLow, childHigh)
			if err != nil {
				return 0, 0, 0, err
			}
			// The stored counter for this child must match the leaf walk
			// exactly.
			stored := leftCount(pg)
			if i > 0 {
				stored = branchCellCount(pg, i-1)
			}
			if int(stored) != sub {
				return 0, 0, 0, corruptf("page %d: child %d counter %d, subtree holds %d keys",
					id, i, stored, sub)
			}
			total += sub
			if i == 0 {
				first = f
			}
			last = l
		}
		return first, last, total, nil
	}
	return 0, 0, 0, corruptf("page %d: unexpected type %d in tree", id, pg.data[offType])
}

func (c *checker) checkOverflow(pg *page, i int) error {
	_, ovfLen, ovfPage := leafCellValue(pg, i)
	if ovfPage == 0 {
		return nil
	}
	total := 0
	hops := 0
	for id := ovfPage; id != 0; {
		opg, err := c.db.pager.get(id)
		if err != nil {
			return err
		}
		if opg.data[offType] != pageOverflow {
			return corruptf("overflow chain reaches page %d of type %d", id, opg.data[offType])
		}
		total += int(getU16(opg.data, ovfOffLen))
		id = getU32(opg.data, ovfOffNext)
		if hops++; hops > 1<<20 {
			return corruptf("overflow chain does not terminate")
		}
	}
	if total != int(ovfLen) {
		return fmt.Errorf("%w: overflow chain holds %d bytes, cell claims %d", ErrCorrupt, total, ovfLen)
	}
	return nil
}
