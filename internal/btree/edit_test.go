package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"pmv/internal/storage"
)

// checkPages walks every page reachable from the root, parsing the bytes
// itself, and holds each to the layout: entries packed in slot order
// right behind the directory, at most PageDataSize bytes used, keys
// strictly ascending and within the range the parent's separators give
// the page, header fields the node type does not use at their fixed
// values, and every leaf at one depth. Then the leaf chain, followed
// from the leftmost leaf, must visit the walk's leaves in order and hold
// want, as Scan must.
func checkPages(t testing.TB, tr *Tree, want [][]byte) {
	t.Helper()
	var leaves []storage.PageID
	leafDepth := 0
	var walk func(id storage.PageID, lo, hi []byte, depth int)
	walk = func(id storage.PageID, lo, hi []byte, depth int) {
		fr, err := tr.pool.Fetch(tr.file, id)
		if err != nil {
			t.Fatal(err)
		}
		p := fr.Buf
		typ, n := p[0], int(binary.BigEndian.Uint16(p[1:]))
		var keys [][]byte
		var kids []storage.PageID
		o := nodeHdr + 2*n
		for i := 0; i < n; i++ {
			if at := int(binary.BigEndian.Uint16(p[nodeHdr+2*i:])); at != o {
				t.Fatalf("page %d: entry %d of %d at %d, want %d", id, i, n, at, o)
			}
			klen := int(binary.BigEndian.Uint16(p[o:]))
			keys = append(keys, bytes.Clone(p[o+2:o+2+klen]))
			o += 2 + klen
			if typ == nodeInner {
				kids = append(kids, storage.PageID(binary.BigEndian.Uint32(p[o:])))
				o += 4
			}
			if o > storage.PageDataSize {
				t.Fatalf("page %d: %d entries use %d bytes", id, n, o)
			}
		}
		next := storage.PageID(binary.BigEndian.Uint32(p[3:]))
		rightmost := storage.PageID(binary.BigEndian.Uint32(p[7:]))
		tr.pool.Unpin(fr, false)
		for i, k := range keys {
			if i > 0 && bytes.Compare(keys[i-1], k) >= 0 {
				t.Fatalf("page %d: key %d %x not above key %d %x", id, i, k, i-1, keys[i-1])
			}
			if (lo != nil && bytes.Compare(k, lo) < 0) || (hi != nil && bytes.Compare(k, hi) >= 0) {
				t.Fatalf("page %d: key %x outside [%x, %x)", id, k, lo, hi)
			}
		}
		switch typ {
		case nodeLeaf:
			if rightmost != 0 {
				t.Fatalf("leaf %d: rightmost child %d", id, rightmost)
			}
			if leafDepth == 0 {
				leafDepth = depth
			} else if depth != leafDepth {
				t.Fatalf("leaf %d at depth %d, another at %d", id, depth, leafDepth)
			}
			leaves = append(leaves, id)
		case nodeInner:
			if next != storage.InvalidPageID {
				t.Fatalf("inner page %d: next %d", id, next)
			}
			kids = append(kids, rightmost)
			for i, c := range kids {
				clo, chi := lo, hi
				if i > 0 {
					clo = keys[i-1]
				}
				if i < n {
					chi = keys[i]
				}
				walk(c, clo, chi, depth+1)
			}
		default:
			t.Fatalf("page %d: node type %d", id, typ)
		}
	}
	walk(tr.root, nil, nil, 1)

	var chain []storage.PageID
	var got [][]byte
	for id := leaves[0]; id != storage.InvalidPageID; {
		chain = append(chain, id)
		fr, err := tr.pool.Fetch(tr.file, id)
		if err != nil {
			t.Fatal(err)
		}
		p := page(fr.Buf)
		for i := 0; i < p.count(); i++ {
			got = append(got, bytes.Clone(p.key(i)))
		}
		id = p.next()
		tr.pool.Unpin(fr, false)
	}
	if !slices.Equal(chain, leaves) {
		t.Fatalf("leaf chain %v, the walk's leaves %v", chain, leaves)
	}
	if !equalKeys(got, want) {
		t.Fatalf("leaf chain holds %d keys, want %d, or out of order", len(got), len(want))
	}
	if scanned := collect(t, tr, nil, nil); !equalKeys(scanned, want) {
		t.Fatalf("Scan: %d keys, want %d, or out of order", len(scanned), len(want))
	}
}

// FuzzInsertDelete runs n Insert, Delete and Replace calls, delPct of
// them deletes and about a sixth of the rest replaces, against a sorted
// slice, and checks every page and Scan's bounds around a random leaf
// (checkScanBounds) after each call. Keys are 1 to maxLen bytes from a
// four-letter alphabet and half of the calls name a key the tree holds,
// so that inserts collide, deletes find their key, and pages split and
// empty. A replacement is the old key with its last byte changed, which
// keeps its length and often its place (Replace's in-place path), or a
// random key.
func FuzzInsertDelete(f *testing.F) {
	f.Add(int64(1), uint16(300), uint16(8), uint8(30))
	f.Add(int64(2), uint16(599), uint16(maxKeyLen-1), uint8(10))
	f.Add(int64(3), uint16(500), uint16(60), uint8(45))
	f.Add(int64(4), uint16(400), uint16(maxKeyLen-1), uint8(40))
	f.Add(int64(5), uint16(599), uint16(300), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, n, maxLen uint16, delPct uint8) {
		rng := rand.New(rand.NewSource(seed))
		klen := 1 + int(maxLen)%maxKeyLen
		tr := newTree(t, 16)
		var want [][]byte
		for op := 0; op < int(n%600); op++ {
			k := randomKeys(rng, 1, klen)[0]
			if len(want) > 0 && rng.Intn(2) == 0 {
				k = want[rng.Intn(len(want))]
			}
			i, found := slices.BinarySearchFunc(want, k, bytes.Compare)
			switch r := rng.Intn(100); {
			case r < int(delPct%100):
				err := tr.Delete(k)
				if found != (err == nil) || (!found && !errors.Is(err, ErrKeyNotFound)) {
					t.Fatalf("op %d: Delete(%x) = %v, present %v", op, k, err, found)
				}
				if found {
					want = slices.Delete(want, i, i+1)
				}
			case rng.Intn(6) == 0:
				nk := randomKeys(rng, 1, klen)[0]
				if rng.Intn(2) == 0 {
					nk = append(bytes.Clone(k[:len(k)-1]), 'a'+byte(rng.Intn(4)))
				}
				j, taken := slices.BinarySearchFunc(want, nk, bytes.Compare)
				err := tr.Replace(k, nk)
				switch {
				case !found:
					if !errors.Is(err, ErrKeyNotFound) {
						t.Fatalf("op %d: Replace(%x, %x) of an absent key = %v", op, k, nk, err)
					}
				case taken && !bytes.Equal(k, nk):
					if !errors.Is(err, ErrKeyExists) {
						t.Fatalf("op %d: Replace(%x, %x) onto a present key = %v", op, k, nk, err)
					}
				case err != nil:
					t.Fatalf("op %d: Replace(%x, %x) = %v", op, k, nk, err)
				case !taken:
					want = slices.Insert(want, j, nk)
					want = slices.DeleteFunc(want, func(w []byte) bool { return bytes.Equal(w, k) })
				}
			default:
				err := tr.Insert(k)
				if found != errors.Is(err, ErrKeyExists) || (!found && err != nil) {
					t.Fatalf("op %d: Insert(%x) = %v, present %v", op, k, err, found)
				}
				if !found {
					want = slices.Insert(want, i, k)
				}
			}
			checkPages(t, tr, want)
			checkScanBounds(t, tr, want, rng)
		}
		checkOracle(t, tr, want, rng)
	})
}

// TestReplace: a same-length replacement that stays between its leaf
// neighbours is written over the old entry with no allocation; one that
// would leave its leaf's range, or changes length, moves through the
// root; either way the tree holds exactly the new set. Replacing an
// absent key, or onto a present one, changes nothing.
func TestReplace(t *testing.T) {
	tr := newTree(t, 16)
	var keys [][]byte
	for i := 0; i < 2000; i++ {
		keys = append(keys, key(10*i))
		if err := tr.Insert(key(10 * i)); err != nil {
			t.Fatal(err)
		}
	}
	if h, _ := tr.Height(); h < 2 {
		t.Fatal("one leaf; the test needs leaf boundaries")
	}
	// key(10i) -> key(10i+1) and back: interior entries stay in place.
	j := 1
	if n := testing.AllocsPerRun(50, func() {
		if err := tr.Replace(key(10*j), key(10*j+1)); err != nil {
			t.Fatal(err)
		}
		if err := tr.Replace(key(10*j+1), key(10*j)); err != nil {
			t.Fatal(err)
		}
		j++
	}); n > 4 { // the four key(…) slices
		t.Errorf("in-place Replace: %v allocs per pair, want only the keys'", n)
	}
	h, _ := tr.Height()
	h0, m0 := tr.pool.Stats()
	if err := tr.Replace(key(100), key(101)); err != nil {
		t.Fatal(err)
	}
	if h1, m1 := tr.pool.Stats(); h1+m1-h0-m0 != int64(h) {
		t.Errorf("in-place Replace fetched %d pages, want one descent of %d", h1+m1-h0-m0, h)
	}
	if err := tr.Replace(key(101), key(100)); err != nil {
		t.Fatal(err)
	}
	checkPages(t, tr, keys)
	// The first and last entries of an inner leaf, moved by less than
	// the gap to the next leaf: the new key sorts between the leaf's
	// neighbours but maybe not inside its parent's separators, which
	// the leaf cannot see, so these must move through the root.
	var firsts, lasts []int
	if err := tr.Walk(nil, nil, func(l Leaf) error {
		firsts = append(firsts, int(binary.BigEndian.Uint64(l.Entry(0))))
		lasts = append(lasts, int(binary.BigEndian.Uint64(l.Entry(l.Len()-1))))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		old, new []byte
		err      error
	}{
		{"a leaf's first entry down", key(firsts[1]), key(firsts[1] - 5), nil},
		{"a leaf's last entry up", key(lasts[1]), key(lasts[1] + 5), nil},
		{"to the far end", key(0), key(100000), nil},
		{"to the front", key(19990), key(1), nil},
		{"longer", key(3000), append(key(3000), 7), nil},
		{"absent", key(3), key(4), ErrKeyNotFound},
		{"onto a present key", key(10), key(20), ErrKeyExists},
	} {
		err := tr.Replace(tc.old, tc.new)
		if !errors.Is(err, tc.err) {
			t.Fatalf("%s: Replace = %v, want %v", tc.name, err, tc.err)
		}
		if err == nil {
			keys = slices.DeleteFunc(keys, func(k []byte) bool { return bytes.Equal(k, tc.old) })
			i, _ := slices.BinarySearchFunc(keys, tc.new, bytes.Compare)
			keys = slices.Insert(keys, i, tc.new)
		}
		checkPages(t, tr, keys)
	}
}

// usedBytes returns the header, directory and entries of a tree's
// single leaf.
func usedBytes(t *testing.T, tr *Tree) []byte {
	t.Helper()
	if h, err := tr.Height(); err != nil || h != 1 {
		t.Fatalf("height %d (%v), want a single leaf", h, err)
	}
	fr, err := tr.pool.Fetch(tr.file, tr.root)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.pool.Unpin(fr, false)
	p := page(fr.Buf)
	return bytes.Clone(p[:p.off(p.count())])
}

// TestEditsMatchBuild: a leaf that keys came into and left in random
// order holds, byte for byte, what Build lays out for the keys that
// stayed — the in-place edits keep the entries packed in slot order.
func TestEditsMatchBuild(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		keys := randomKeys(rng, 150, 40)
		edited := newTree(t, 16)
		for _, i := range rng.Perm(len(keys)) {
			if err := edited.Insert(keys[i]); err != nil {
				t.Fatal(err)
			}
		}
		gone := make([]bool, len(keys))
		for _, i := range rng.Perm(len(keys))[:len(keys)/3] {
			if err := edited.Delete(keys[i]); err != nil {
				t.Fatal(err)
			}
			gone[i] = true
		}
		var kept [][]byte
		for i, k := range keys {
			if !gone[i] {
				kept = append(kept, k)
			}
		}
		built := newTree(t, 16)
		if err := built.Build(kept); err != nil {
			t.Fatal(err)
		}
		if got, want := usedBytes(t, edited), usedBytes(t, built); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: the edited leaf's %d bytes differ from the built leaf's %d", seed, len(got), len(want))
		}
	}
}

// TestWritesInPlace pins the write paths to the pinned frame: inserting
// into a leaf with room, and deleting from it, allocate nothing.
func TestWritesInPlace(t *testing.T) {
	tr := newTree(t, 16)
	var odd [][]byte
	for i := 0; i < 150; i++ {
		if err := tr.Insert(key(2 * i)); err != nil {
			t.Fatal(err)
		}
		odd = append(odd, key(2*i+1))
	}
	const runs = 100 // AllocsPerRun calls the function runs+1 times
	j := 0
	if n := testing.AllocsPerRun(runs, func() {
		if err := tr.Insert(odd[j]); err != nil {
			t.Fatal(err)
		}
		j++
	}); n != 0 {
		t.Errorf("Insert into a leaf with room: %v allocs, want 0", n)
	}
	if h, _ := tr.Height(); h != 1 {
		t.Fatalf("height %d: the inserts split the leaf", h)
	}
	j = 0
	if n := testing.AllocsPerRun(runs, func() {
		if err := tr.Delete(odd[j]); err != nil {
			t.Fatal(err)
		}
		j++
	}); n != 0 {
		t.Errorf("Delete: %v allocs, want 0", n)
	}
	if c, _ := tr.Count(); c != 150 {
		t.Fatalf("count %d, want 150", c)
	}
}
