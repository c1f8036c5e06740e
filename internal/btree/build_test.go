package btree

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"pmv/internal/buffer"
	"pmv/internal/storage"
)

// newTreeMgr is newTree that also hands back the storage manager, for
// tests that count the file's pages.
func newTreeMgr(t testing.TB, frames int) (*Tree, *storage.Manager) {
	t.Helper()
	mgr, err := storage.NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	tr, err := Open(buffer.NewPool(mgr, frames), mgr, "idx.test")
	if err != nil {
		t.Fatal(err)
	}
	return tr, mgr
}

// randomKeys returns n distinct keys of 1 to maxLen bytes from a
// four-letter alphabet, sorted; fewer when the alphabet has fewer keys
// of those lengths.
func randomKeys(rng *rand.Rand, n, maxLen int) [][]byte {
	space := 0
	for l, words := 1, 4; l <= maxLen && space < n; l, words = l+1, words*4 {
		space += words
	}
	n = min(n, space)
	seen := make(map[string]bool, n)
	keys := make([][]byte, 0, n)
	for len(keys) < n {
		k := make([]byte, 1+rng.Intn(maxLen))
		rng.Read(k)
		// A short alphabet makes shared prefixes and near neighbours.
		for i := range k {
			k[i] %= 4
		}
		if !seen[string(k)] {
			seen[string(k)] = true
			keys = append(keys, k)
		}
	}
	slices.SortFunc(keys, bytes.Compare)
	return keys
}

// exactlyFull returns a key length and a count of such keys that fill
// one built leaf to exactly buildFill bytes.
func exactlyFull() (klen, n int) {
	for klen = 40; (buildFill-nodeHdr)%(2+2+klen) != 0; klen++ {
	}
	return klen, (buildFill - nodeHdr) / (2 + 2 + klen)
}

// collect scans [lo, hi) into copies.
func collect(t testing.TB, tr *Tree, lo, hi []byte) [][]byte {
	t.Helper()
	var out [][]byte
	if err := tr.Scan(lo, hi, func(k []byte) error {
		out = append(out, append([]byte(nil), k...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// oracleRange is the sorted-slice answer to Scan(lo, hi).
func oracleRange(keys [][]byte, lo, hi []byte) [][]byte {
	i, _ := slices.BinarySearchFunc(keys, lo, bytes.Compare)
	j := len(keys)
	if hi != nil {
		j, _ = slices.BinarySearchFunc(keys, hi, bytes.Compare)
	}
	if j < i {
		j = i
	}
	return keys[i:j]
}

// leafFirstKeys returns the first key of every non-empty leaf, in
// leaf-chain order.
func leafFirstKeys(t testing.TB, tr *Tree) [][]byte {
	t.Helper()
	fr, _, err := tr.descend(nil)
	if err != nil {
		t.Fatal(err)
	}
	var firsts [][]byte
	for {
		p := page(fr.Buf)
		if p.count() > 0 {
			firsts = append(firsts, bytes.Clone(p.key(0)))
		}
		next := p.next()
		tr.pool.Unpin(fr, false)
		if next == storage.InvalidPageID {
			return firsts
		}
		if fr, err = tr.pool.Fetch(tr.file, next); err != nil {
			t.Fatal(err)
		}
	}
}

// scanBound is one [lo, hi) a Scan is held to the oracle on.
type scanBound struct {
	name   string
	lo, hi []byte
}

// scanBounds returns the ranges whose hi falls on a leaf's edge around
// leaf i of firsts (the leaves' first keys) or on lo itself: hi equal
// to the leaf's first key, a range of exactly that leaf, hi just past
// the leaf's first key and past the last key, hi == lo, and hi < lo.
func scanBounds(keys, firsts [][]byte, i int, lo []byte) []scanBound {
	var past []byte
	if len(keys) > 0 {
		past = append(bytes.Clone(keys[len(keys)-1]), 0)
	}
	bs := []scanBound{
		{"hi-past-last", lo, past},
		{"hi-eq-lo", lo, lo},
	}
	if len(lo) > 0 {
		bs = append(bs, scanBound{"hi-below-lo", lo, lo[:len(lo)-1]})
	}
	if i < len(firsts) {
		f := firsts[i]
		var nextFirst []byte // nil: f's leaf is the last one
		if i+1 < len(firsts) {
			nextFirst = firsts[i+1]
		}
		bs = append(bs,
			scanBound{"hi-at-leaf-first", lo, f},
			scanBound{"to-leaf-first", nil, f},
			scanBound{"one-leaf", f, nextFirst},
			scanBound{"leaf-first-only", f, append(bytes.Clone(f), 0)},
			scanBound{"leaf-first-past-last", f, past},
			scanBound{"leaf-first-eq", f, f})
		if len(f) > 0 {
			bs = append(bs, scanBound{"below-leaf-first", f, f[:len(f)-1]})
		}
	}
	return bs
}

// checkScanBounds holds Scan to the oracle over scanBounds for a
// random leaf and a random lo.
func checkScanBounds(t testing.TB, tr *Tree, keys [][]byte, rng *rand.Rand) {
	t.Helper()
	firsts := leafFirstKeys(t, tr)
	i := 0
	if len(firsts) > 0 {
		i = rng.Intn(len(firsts))
	}
	for _, b := range scanBounds(keys, firsts, i, probe(rng, keys)) {
		if got, want := collect(t, tr, b.lo, b.hi), oracleRange(keys, b.lo, b.hi); !equalKeys(got, want) {
			t.Fatalf("%s: Scan [%x, %x): %d keys, want %d", b.name, b.lo, b.hi, len(got), len(want))
		}
	}
}

// probe returns a key near the oracle's: one of them, a neighbour
// one byte longer or shorter, or a random one.
func probe(rng *rand.Rand, keys [][]byte) []byte {
	if len(keys) == 0 || rng.Intn(4) == 0 {
		k := make([]byte, rng.Intn(6))
		rng.Read(k)
		return k
	}
	k := append([]byte(nil), keys[rng.Intn(len(keys))]...)
	switch rng.Intn(3) {
	case 1:
		k = append(k, byte(rng.Intn(4)))
	case 2:
		if len(k) > 0 {
			k = k[:len(k)-1]
		}
	}
	return k[:min(len(k), maxKeyLen)]
}

// checkOracle compares tr with the sorted slice keys: Count, the full
// scan, random [lo, hi) ranges and Contains on present and absent keys.
func checkOracle(t testing.TB, tr *Tree, keys [][]byte, rng *rand.Rand) {
	t.Helper()
	if n, err := tr.Count(); err != nil || n != len(keys) {
		t.Fatalf("Count = %d (%v), want %d", n, err, len(keys))
	}
	if got := collect(t, tr, nil, nil); !equalKeys(got, keys) {
		t.Fatalf("full scan: %d keys, want %d, or out of order", len(got), len(keys))
	}
	for i := 0; i < 40; i++ {
		lo, hi := probe(rng, keys), probe(rng, keys)
		if rng.Intn(5) == 0 {
			hi = nil
		}
		if got, want := collect(t, tr, lo, hi), oracleRange(keys, lo, hi); !equalKeys(got, want) {
			t.Fatalf("Scan [%x, %x): %d keys, want %d", lo, hi, len(got), len(want))
		}
		k := probe(rng, keys)
		_, want := slices.BinarySearchFunc(keys, k, bytes.Compare)
		if got, err := tr.Contains(k); err != nil || got != want {
			t.Fatalf("Contains(%x) = %v (%v), want %v", k, got, err, want)
		}
	}
}

func equalKeys(a, b [][]byte) bool {
	return slices.EqualFunc(a, b, func(x, y []byte) bool { return bytes.Equal(x, y) })
}

// reachablePages counts the pages the tree links from its root.
func reachablePages(t testing.TB, tr *Tree) int {
	t.Helper()
	n := 0
	var walk func(id storage.PageID)
	walk = func(id storage.PageID) {
		n++
		fr, err := tr.pool.Fetch(tr.file, id)
		if err != nil {
			t.Fatal(err)
		}
		p := page(fr.Buf)
		leaf, err := p.isLeaf()
		if err != nil {
			t.Fatal(err)
		}
		var kids []storage.PageID
		if !leaf {
			for i := 0; i <= p.count(); i++ {
				kids = append(kids, p.child(i))
			}
		}
		tr.pool.Unpin(fr, false)
		for _, c := range kids {
			walk(c)
		}
	}
	walk(tr.root)
	return n
}

// checkBuild builds keys into a fresh tree and inserts them one at a
// time into another, then holds both to the oracle, the built tree to
// a height no larger and a file of the meta page plus its own pages,
// and finally runs a random Insert/Delete stream on the built tree. It
// returns the built tree's height before the stream.
func checkBuild(t testing.TB, keys [][]byte, seed int64) (height int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	built, mgr := newTreeMgr(t, 64)
	if err := built.Build(keys); err != nil {
		t.Fatalf("Build of %d keys: %v", len(keys), err)
	}
	inserted := newTree(t, 64)
	for _, i := range rng.Perm(len(keys)) {
		if err := inserted.Insert(keys[i]); err != nil {
			t.Fatal(err)
		}
	}
	checkOracle(t, built, keys, rng)
	checkOracle(t, inserted, keys, rng)
	height, err := built.Height()
	if err != nil {
		t.Fatal(err)
	}
	if hi, _ := inserted.Height(); height > hi {
		t.Fatalf("built height %d > inserted height %d", height, hi)
	}
	f, err := mgr.Open(built.File())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := int(f.NumPages()), 1+reachablePages(t, built); got != want {
		t.Fatalf("file holds %d pages, want the meta page and %d tree pages", got, want-1)
	}

	// Inserts into packed leaves split them; deletes empty them.
	want := slices.Clone(keys)
	for op := 0; op < 600; op++ {
		k := probe(rng, want)
		i, found := slices.BinarySearchFunc(want, k, bytes.Compare)
		if rng.Intn(3) > 0 {
			err := built.Insert(k)
			if found != errors.Is(err, ErrKeyExists) || (!found && err != nil) {
				t.Fatalf("op %d: Insert(%x) = %v, present %v", op, k, err, found)
			}
			if !found {
				want = slices.Insert(want, i, k)
			}
		} else {
			err := built.Delete(k)
			if found != (err == nil) || (!found && !errors.Is(err, ErrKeyNotFound)) {
				t.Fatalf("op %d: Delete(%x) = %v, present %v", op, k, err, found)
			}
			if found {
				want = slices.Delete(want, i, i+1)
			}
		}
	}
	checkOracle(t, built, want, rng)
	return height
}

// TestBuildMatchesInsert holds Build to Insert and a sorted slice over
// the key sets that shape a tree: none, one, exactly one full leaf, one
// key more, one key more than a page holds, and several levels, with
// key lengths from 1 to maxKeyLen.
func TestBuildMatchesInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	fixed := func(n, klen int) [][]byte {
		keys := make([][]byte, n)
		for i := range keys {
			keys[i] = make([]byte, klen)
			copy(keys[i][klen-len(key(i)):], key(i))
		}
		return keys
	}
	klen, full := exactlyFull()
	cases := []struct {
		name   string
		keys   [][]byte
		height int // 0: not pinned
	}{
		{"empty", nil, 1},
		{"one", [][]byte{{7}}, 1},
		{"one-key-of-maxKeyLen", [][]byte{bytes.Repeat([]byte{9}, maxKeyLen)}, 1},
		{"full-leaf", fixed(full, klen), 1},
		// Past buildFill but within a page: the root leaf takes them all.
		{"full-leaf-plus-one", fixed(full+1, klen), 1},
		{"page-plus-one", fixed((storage.PageDataSize-nodeHdr)/(2+2+klen)+1, klen), 2},
		{"two-levels", randomKeys(rng, 3000, 12), 2},
		{"three-levels", fixed(2000, 300), 3},
		{"long-keys", randomKeys(rng, 600, maxKeyLen), 0},
		{"mixed-lengths", randomKeys(rng, 2000, 300), 0},
	}
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if h := checkBuild(t, c.keys, int64(i)); c.height > 0 && h != c.height {
				t.Fatalf("height %d, want %d", h, c.height)
			}
		})
	}
}

// TestScanBoundsOverBuild holds Scan to the oracle on a packed tree of
// many leaves for every leaf's bound ranges (scanBounds), with lo both
// the smallest key and a key inside the leaf before.
func TestScanBoundsOverBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	keys := randomKeys(rng, 3000, 12)
	tr := newTree(t, 64)
	if err := tr.Build(keys); err != nil {
		t.Fatal(err)
	}
	firsts := leafFirstKeys(t, tr)
	if len(firsts) < 3 {
		t.Fatalf("%d leaves; fixture too small", len(firsts))
	}
	for i, f := range firsts {
		j, _ := slices.BinarySearchFunc(keys, f, bytes.Compare)
		for _, lo := range [][]byte{keys[0], keys[max(j-1, 0)]} {
			for _, b := range scanBounds(keys, firsts, i, lo) {
				if got, want := collect(t, tr, b.lo, b.hi), oracleRange(keys, b.lo, b.hi); !equalKeys(got, want) {
					t.Fatalf("leaf %d, %s: Scan [%x, %x): %d keys, want %d", i, b.name, b.lo, b.hi, len(got), len(want))
				}
			}
		}
	}
}

// TestBuildRejects: input that is not strictly ascending, or holds an
// oversized key, and a tree that is not empty are refused before
// anything is written, and the tree can still be built afterwards.
func TestBuildRejects(t *testing.T) {
	big := bytes.Repeat([]byte{1}, maxKeyLen+1)
	for _, c := range []struct {
		name string
		keys [][]byte
		want error
	}{
		{"unsorted", [][]byte{key(1), key(3), key(2)}, ErrUnsorted},
		{"duplicate", [][]byte{key(1), key(2), key(2)}, ErrKeyExists},
		{"too-large", [][]byte{key(1), big}, ErrKeyTooLarge},
	} {
		t.Run(c.name, func(t *testing.T) {
			tr, mgr := newTreeMgr(t, 16)
			if err := tr.Build(c.keys); !errors.Is(err, c.want) {
				t.Fatalf("Build: %v, want %v", err, c.want)
			}
			if f, _ := mgr.Open(tr.File()); f.NumPages() != 2 {
				t.Fatalf("a refused Build left %d pages", f.NumPages())
			}
			if err := tr.Build([][]byte{key(1), key(2)}); err != nil {
				t.Fatalf("Build after a refused one: %v", err)
			}
			if n, _ := tr.Count(); n != 2 {
				t.Fatalf("count %d", n)
			}
		})
	}
	t.Run("not-empty", func(t *testing.T) {
		for _, fill := range []func(*Tree) error{
			func(tr *Tree) error { return tr.Insert(key(5)) },
			func(tr *Tree) error { return tr.Build([][]byte{key(5)}) },
		} {
			tr := newTree(t, 16)
			if err := fill(tr); err != nil {
				t.Fatal(err)
			}
			if err := tr.Build([][]byte{key(1)}); !errors.Is(err, ErrNotEmpty) {
				t.Fatalf("Build into a tree with a key: %v", err)
			}
			if got := collect(t, tr, nil, nil); !equalKeys(got, [][]byte{key(5)}) {
				t.Fatalf("tree changed: %x", got)
			}
		}
	})
}

// TestBuildPersists: a built tree reopens from its file.
func TestBuildPersists(t *testing.T) {
	dir := t.TempDir()
	keys := randomKeys(rand.New(rand.NewSource(8)), 5000, 16)
	mgr, err := storage.NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	pool := buffer.NewPool(mgr, 32)
	tr, err := Open(pool, mgr, "idx.p")
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Build(keys); err != nil {
		t.Fatal(err)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	mgr.Close()

	mgr2, err := storage.NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	tr2, err := Open(buffer.NewPool(mgr2, 32), mgr2, "idx.p")
	if err != nil {
		t.Fatal(err)
	}
	checkOracle(t, tr2, keys, rand.New(rand.NewSource(9)))
}

// FuzzBuild: raw, split at zero bytes, is handed to Build as it is and
// must be refused exactly when it is not strictly ascending or holds an
// oversized key; then the sorted, deduplicated keys of raw plus n
// random keys of up to maxLen bytes go through checkBuild.
func FuzzBuild(f *testing.F) {
	f.Add([]byte{}, int64(1), uint16(0), uint16(8))
	f.Add([]byte{1, 0, 2, 0, 3}, int64(2), uint16(10), uint16(8))
	f.Add([]byte{3, 0, 2}, int64(3), uint16(400), uint16(1))
	f.Add([]byte{5, 0, 5}, int64(4), uint16(900), uint16(40))
	f.Add([]byte{1, 2, 3}, int64(5), uint16(120), uint16(maxKeyLen))
	f.Fuzz(func(t *testing.T, raw []byte, seed int64, n, maxLen uint16) {
		given := bytes.Split(raw, []byte{0})
		valid := true
		for i, k := range given {
			if len(k) > maxKeyLen || (i > 0 && bytes.Compare(given[i-1], k) >= 0) {
				valid = false
			}
		}
		tr := newTree(t, 16)
		if err := tr.Build(given); (err == nil) != valid {
			t.Fatalf("Build(%x) = %v; input valid: %v", given, err, valid)
		}

		rng := rand.New(rand.NewSource(seed))
		keys := randomKeys(rng, int(n%2000), 1+int(maxLen)%maxKeyLen)
		for _, k := range given {
			if len(k) <= maxKeyLen {
				keys = append(keys, k)
			}
		}
		slices.SortFunc(keys, bytes.Compare)
		keys = slices.CompactFunc(keys, func(a, b []byte) bool { return bytes.Equal(a, b) })
		checkBuild(t, keys, seed)
	})
}
