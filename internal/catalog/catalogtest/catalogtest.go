// Package catalogtest holds checks that tests run against a catalog's
// on-disk state.
package catalogtest

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"pmv/internal/btree"
	"pmv/internal/catalog"
	"pmv/internal/keycodec"
	"pmv/internal/storage"
	"pmv/internal/value"
)

// IndexesMatchHeap checks every index of every relation in cat: its
// entries, in scan order, must be exactly the sorted set
// {PackRID(KeyFor(t), rid)} over the tuples t at rids of its relation's
// heap. It derives that set itself and reads the index only through
// Tree.Scan, so it shares nothing with the code that built the index.
// An index that carries columns is also read back: every entry's
// carried values must decode to its heap row's, bit for bit, or be
// keycodec's absent tag exactly where the value's encoding is longer
// than catalog.CoveredCap.
func IndexesMatchHeap(cat *catalog.Catalog) error {
	for _, r := range cat.Relations() {
		for _, ix := range r.Indexes {
			if err := indexMatchesHeap(r, ix); err != nil {
				return err
			}
		}
	}
	return nil
}

func indexMatchesHeap(r *catalog.Relation, ix *catalog.Index) error {
	var want []string
	if err := r.Heap.Scan(func(rid storage.RID, t value.Tuple) error {
		want = append(want, string(btree.PackRID(ix.KeyFor(t), rid)))
		return nil
	}); err != nil {
		return fmt.Errorf("index %s: scan heap: %w", ix.Name, err)
	}
	sort.Strings(want)
	i := 0
	if err := ix.Tree.Scan(nil, nil, func(entry []byte) error {
		switch {
		case i == len(want):
			return fmt.Errorf("index %s: entry %d %x past the heap's %d", ix.Name, i, entry, len(want))
		case !bytes.Equal(entry, []byte(want[i])):
			return fmt.Errorf("index %s: entry %d is %x, the heap gives %x", ix.Name, i, entry, want[i])
		}
		i++
		return nil
	}); err != nil {
		return err
	}
	if i != len(want) {
		return fmt.Errorf("index %s: %d entries, the heap has %d rows", ix.Name, i, len(want))
	}
	if ix.Covered == 0 {
		return nil
	}
	return ix.Tree.Scan(nil, nil, func(entry []byte) error {
		key, rid, err := btree.UnpackRID(entry)
		if err != nil {
			return err
		}
		t, err := r.Heap.Get(rid)
		if err != nil {
			return fmt.Errorf("index %s: entry at %v: %w", ix.Name, rid, err)
		}
		for j, c := range ix.Cols {
			if j < len(ix.Cols)-ix.Covered {
				n, err := keycodec.Skip(key)
				if err != nil {
					return fmt.Errorf("index %s: entry at %v, column %d: %w", ix.Name, rid, j, err)
				}
				key = key[n:]
				continue
			}
			v, n, err := keycodec.DecodeValue(key)
			long := len(keycodec.AppendValue(nil, t[c])) > catalog.CoveredCap
			switch {
			case errors.Is(err, keycodec.ErrAbsent) != long:
				return fmt.Errorf("index %s: entry at %v carries column %d absent=%v for %v", ix.Name, rid, j, !long, t[c])
			case err != nil && !long:
				return fmt.Errorf("index %s: entry at %v, column %d: %w", ix.Name, rid, j, err)
			case !long && !value.Identical(v, t[c]):
				return fmt.Errorf("index %s: entry at %v carries %v, the heap %v", ix.Name, rid, v, t[c])
			}
			key = key[n:]
		}
		return nil
	})
}
