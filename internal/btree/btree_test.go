package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"pmv/internal/buffer"
	"pmv/internal/storage"
)

func newTree(t testing.TB, frames int) *Tree {
	t.Helper()
	mgr, err := storage.NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	pool := buffer.NewPool(mgr, frames)
	tr, err := Open(pool, mgr, "idx.test")
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func key(i int) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(i))
	return b[:]
}

func TestInsertContainsDelete(t *testing.T) {
	tr := newTree(t, 64)
	for i := 0; i < 100; i++ {
		if err := tr.Insert(key(i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	for i := 0; i < 100; i++ {
		ok, err := tr.Contains(key(i))
		if err != nil || !ok {
			t.Fatalf("contains %d: %v %v", i, ok, err)
		}
	}
	if ok, _ := tr.Contains(key(1000)); ok {
		t.Error("phantom key")
	}
	for i := 0; i < 100; i += 2 {
		if err := tr.Delete(key(i)); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
	}
	for i := 0; i < 100; i++ {
		ok, _ := tr.Contains(key(i))
		if want := i%2 == 1; ok != want {
			t.Errorf("after delete: contains(%d) = %v", i, ok)
		}
	}
}

func TestDuplicateInsertRejected(t *testing.T) {
	tr := newTree(t, 16)
	if err := tr.Insert(key(1)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(key(1)); !errors.Is(err, ErrKeyExists) {
		t.Errorf("duplicate insert: %v", err)
	}
	if err := tr.Delete(key(2)); !errors.Is(err, ErrKeyNotFound) {
		t.Errorf("missing delete: %v", err)
	}
}

func TestScanOrderAndRange(t *testing.T) {
	tr := newTree(t, 64)
	perm := rand.New(rand.NewSource(3)).Perm(500)
	for _, i := range perm {
		if err := tr.Insert(key(i)); err != nil {
			t.Fatal(err)
		}
	}
	var got []int
	err := tr.Scan(nil, nil, func(k []byte) error {
		got = append(got, int(binary.BigEndian.Uint64(k)))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 500 || !sort.IntsAreSorted(got) {
		t.Fatalf("full scan: %d keys, sorted=%v", len(got), sort.IntsAreSorted(got))
	}
	// Bounded range [100, 200).
	got = got[:0]
	err = tr.Scan(key(100), key(200), func(k []byte) error {
		got = append(got, int(binary.BigEndian.Uint64(k)))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 || got[0] != 100 || got[99] != 199 {
		t.Errorf("range scan: n=%d first=%d last=%d", len(got), got[0], got[len(got)-1])
	}
}

func TestScanEarlyStop(t *testing.T) {
	tr := newTree(t, 64)
	for i := 0; i < 50; i++ {
		tr.Insert(key(i))
	}
	n := 0
	err := tr.Scan(nil, nil, func([]byte) error {
		n++
		if n == 10 {
			return ErrStopScan
		}
		return nil
	})
	if err != nil || n != 10 {
		t.Errorf("early stop: n=%d err=%v", n, err)
	}
}

func TestSplitsGrowHeight(t *testing.T) {
	tr := newTree(t, 256)
	const n = 20000
	for i := 0; i < n; i++ {
		if err := tr.Insert(key(i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	h, err := tr.Height()
	if err != nil {
		t.Fatal(err)
	}
	if h < 2 {
		t.Errorf("height %d after %d inserts — no splits happened?", h, n)
	}
	c, err := tr.Count()
	if err != nil || c != n {
		t.Errorf("count %d want %d (err %v)", c, n, err)
	}
}

func TestAgainstReferenceModel(t *testing.T) {
	tr := newTree(t, 128)
	ref := make(map[string]bool)
	rng := rand.New(rand.NewSource(11))
	for op := 0; op < 5000; op++ {
		k := key(rng.Intn(800))
		switch rng.Intn(3) {
		case 0, 1:
			err := tr.Insert(k)
			if ref[string(k)] {
				if !errors.Is(err, ErrKeyExists) {
					t.Fatalf("op %d: expected ErrKeyExists, got %v", op, err)
				}
			} else if err != nil {
				t.Fatalf("op %d: insert: %v", op, err)
			} else {
				ref[string(k)] = true
			}
		case 2:
			err := tr.Delete(k)
			if ref[string(k)] {
				if err != nil {
					t.Fatalf("op %d: delete: %v", op, err)
				}
				delete(ref, string(k))
			} else if !errors.Is(err, ErrKeyNotFound) {
				t.Fatalf("op %d: expected ErrKeyNotFound, got %v", op, err)
			}
		}
	}
	// Final state must match the model exactly, in order.
	want := make([]string, 0, len(ref))
	for k := range ref {
		want = append(want, k)
	}
	sort.Strings(want)
	var got []string
	tr.Scan(nil, nil, func(k []byte) error {
		got = append(got, string(k))
		return nil
	})
	if len(got) != len(want) {
		t.Fatalf("size mismatch: got %d want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("entry %d differs", i)
		}
	}
}

func TestVariableLengthKeys(t *testing.T) {
	tr := newTree(t, 128)
	var keys []string
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("%0*d", 1+rng.Intn(60), i)
		keys = append(keys, k)
		if err := tr.Insert([]byte(k)); err != nil {
			t.Fatalf("insert %q: %v", k, err)
		}
	}
	sort.Strings(keys)
	i := 0
	err := tr.Scan(nil, nil, func(k []byte) error {
		if string(k) != keys[i] {
			return fmt.Errorf("position %d: got %q want %q", i, k, keys[i])
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != len(keys) {
		t.Errorf("scanned %d of %d", i, len(keys))
	}
}

func TestKeyTooLarge(t *testing.T) {
	tr := newTree(t, 16)
	if err := tr.Insert(bytes.Repeat([]byte{1}, 5000)); !errors.Is(err, ErrKeyTooLarge) {
		t.Errorf("oversized key: %v", err)
	}
}

// TestSplitKeepsHalvesInPage: a node splits by bytes, not by key count.
// A leaf that holds seven 1-byte keys and seven maxKeyLen ones
// overflows on the eighth long key; split at its middle key, the eight
// long keys would make a half larger than a page.
func TestSplitKeepsHalvesInPage(t *testing.T) {
	long := func(i int) []byte { return append(bytes.Repeat([]byte{0xF0}, maxKeyLen-1), byte(i)) }
	for _, order := range []string{"long-first", "short-first"} {
		t.Run(order, func(t *testing.T) {
			tr := newTree(t, 16)
			var keys [][]byte
			for i := 0; i < 8; i++ {
				keys = append(keys, long(i))
			}
			for i := 0; i < 7; i++ {
				keys = append(keys, []byte{byte(i)})
			}
			if order == "short-first" {
				slices.Reverse(keys)
			}
			for _, k := range keys {
				if err := tr.Insert(k); err != nil {
					t.Fatal(err)
				}
			}
			if n, err := tr.Count(); err != nil || n != len(keys) {
				t.Fatalf("count %d (%v), want %d", n, err, len(keys))
			}
			for _, k := range keys {
				if ok, err := tr.Contains(k); err != nil || !ok {
					t.Fatalf("contains %x: %v %v", k[len(k)-1], ok, err)
				}
			}
		})
	}
}

// TestScanFailsOnZeroedLeaf: after a crash a leaf link can name a page
// whose content never reached disk. Scan reports it instead of reading
// the zeros as an empty leaf linked to page 0, the meta page.
func TestScanFailsOnZeroedLeaf(t *testing.T) {
	tr := newTree(t, 16)
	for i := 0; i < 2000; i++ {
		if err := tr.Insert(key(i)); err != nil {
			t.Fatal(err)
		}
	}
	fr, err := tr.pool.Fetch(tr.file, 2) // the first split's right leaf
	if err != nil {
		t.Fatal(err)
	}
	clear(fr.Buf)
	tr.pool.Unpin(fr, true)
	if err := tr.Scan(nil, nil, func([]byte) error { return nil }); err == nil {
		t.Fatal("Scan crossed a zeroed leaf without an error")
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	mgr, err := storage.NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	pool := buffer.NewPool(mgr, 64)
	tr, err := Open(pool, mgr, "idx.p")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		if err := tr.Insert(key(i)); err != nil {
			t.Fatal(err)
		}
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
	pool2 := buffer.NewPool(mgr2, 64)
	tr2, err := Open(pool2, mgr2, "idx.p")
	if err != nil {
		t.Fatal(err)
	}
	c, err := tr2.Count()
	if err != nil || c != 3000 {
		t.Errorf("after reopen: count=%d err=%v", c, err)
	}
	for _, i := range []int{0, 1499, 2999} {
		if ok, _ := tr2.Contains(key(i)); !ok {
			t.Errorf("key %d lost across reopen", i)
		}
	}
}

func TestPackUnpackRID(t *testing.T) {
	k := []byte("logical")
	rid := storage.RID{Page: 77, Slot: 9}
	entry := PackRID(k, rid)
	k2, rid2, err := UnpackRID(entry)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(k, k2) || rid2 != rid {
		t.Errorf("roundtrip: %q %v", k2, rid2)
	}
	if _, _, err := UnpackRID([]byte("tiny")); err == nil {
		t.Error("short entry accepted")
	}
}

func TestSuccessor(t *testing.T) {
	cases := []struct {
		in   []byte
		want []byte
	}{
		{[]byte{1, 2, 3}, []byte{1, 2, 4}},
		{[]byte{1, 0xFF}, []byte{2}},
		{[]byte{0xFF, 0xFF}, nil},
		{[]byte{}, nil},
	}
	for _, c := range cases {
		got := Successor(c.in)
		if !bytes.Equal(got, c.want) {
			t.Errorf("Successor(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	// Property: in < Successor(in), and no key with prefix `in` is >= it.
	for i := 0; i < 100; i++ {
		p := key(i * 37)
		s := Successor(p)
		if bytes.Compare(p, s) >= 0 {
			t.Errorf("successor not greater: %v %v", p, s)
		}
		ext := append(append([]byte{}, p...), 0xFF, 0xFF)
		if bytes.Compare(ext, s) >= 0 {
			t.Errorf("extension %v escapes successor %v", ext, s)
		}
	}
}

// builtTree returns a tree built from n random 8-byte keys, and the keys.
func builtTree(b *testing.B, rng *rand.Rand, n int) (*Tree, [][]byte) {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = key(int(rng.Int63()))
	}
	slices.SortFunc(keys, bytes.Compare)
	keys = slices.CompactFunc(keys, func(a, b []byte) bool { return bytes.Equal(a, b) })
	tr := newTree(b, 4096)
	if err := tr.Build(keys); err != nil {
		b.Fatal(err)
	}
	return tr, keys
}

// BenchmarkInsert inserts random keys into a tree built from 100,000.
func BenchmarkInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tr, _ := builtTree(b, rng, 100000)
	var k [8]byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		binary.BigEndian.PutUint64(k[:], uint64(rng.Int63()))
		if err := tr.Insert(k[:]); err != nil && !errors.Is(err, ErrKeyExists) {
			b.Fatal(err)
		}
	}
}

// BenchmarkDelete deletes the keys of a tree built from 100,000 in
// random order, putting them back untimed whenever it runs out.
func BenchmarkDelete(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tr, keys := builtTree(b, rng, 100000)
	order := rng.Perm(len(keys))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(keys)
		if j == 0 && i > 0 {
			b.StopTimer()
			for _, k := range keys {
				if err := tr.Insert(k); err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
		}
		if err := tr.Delete(keys[order[j]]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkContains(b *testing.B) {
	tr := newTree(b, 1024)
	for i := 0; i < 100000; i++ {
		tr.Insert(key(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Contains(key(i % 100000))
	}
}

// TestReadsInPlace pins the read paths to the pinned frame: scanning a
// 300-key leaf and probing for a key allocate nothing (the parent
// rebuilt every visited node, one slice per key), and the slice a scan
// hands out is the page's own bytes, not a copy.
func TestReadsInPlace(t *testing.T) {
	tr := newTree(t, 64)
	for i := 0; i < 300; i++ {
		if err := tr.Insert(key(i)); err != nil {
			t.Fatal(err)
		}
	}
	if h, _ := tr.Height(); h != 1 {
		t.Fatalf("height = %d, want a single leaf", h)
	}
	var seen int
	count := func(k []byte) error {
		seen++
		return nil
	}
	if n := testing.AllocsPerRun(50, func() {
		seen = 0
		if err := tr.Scan(nil, nil, count); err != nil || seen != 300 {
			t.Fatalf("scan: %d keys, %v", seen, err)
		}
	}); n != 0 {
		t.Errorf("Scan of a 300-key leaf: %v allocs, want 0", n)
	}
	probe := key(123)
	if n := testing.AllocsPerRun(50, func() {
		if ok, err := tr.Contains(probe); err != nil || !ok {
			t.Fatalf("contains: %v %v", ok, err)
		}
	}); n != 0 {
		t.Errorf("Contains: %v allocs, want 0", n)
	}

	// Two levels: the descent and the leaf chain are in place too.
	for i := 300; i < 3000; i++ {
		if err := tr.Insert(key(i)); err != nil {
			t.Fatal(err)
		}
	}
	if h, _ := tr.Height(); h < 2 {
		t.Fatalf("height = %d, want >= 2", h)
	}
	lo, hi := key(1000), key(2000)
	if n := testing.AllocsPerRun(20, func() {
		seen = 0
		if err := tr.Scan(lo, hi, count); err != nil || seen != 1000 {
			t.Fatalf("range scan: %d keys, %v", seen, err)
		}
	}); n != 0 {
		t.Errorf("range Scan across leaves: %v allocs, want 0", n)
	}

	// The key a scan hands out is a window on the 8 KiB frame (its
	// capacity runs to the end of the page), not a key-sized copy.
	err := tr.Scan(key(5), key(6), func(k []byte) error {
		if cap(k) <= maxKeyLen {
			t.Errorf("Scan handed out a copy: len %d cap %d", len(k), cap(k))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentReaders(t *testing.T) {
	tr := newTree(t, 256)
	for i := 0; i < 5000; i++ {
		if err := tr.Insert(key(i)); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(seed int) {
			for i := 0; i < 300; i++ {
				k := (seed*131 + i*37) % 5000
				ok, err := tr.Contains(key(k))
				if err != nil {
					done <- err
					return
				}
				if !ok {
					done <- fmt.Errorf("key %d missing", k)
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestReadersDuringWrites: point and range readers run beside a writer
// that inserts keys from 1000 on and, in the second case, deletes some
// of them again. The first 1000 keys are never touched, so every range
// scan over them sees them all, in order, while leaves split and shrink
// under it.
func TestReadersDuringWrites(t *testing.T) {
	for _, c := range []struct {
		name  string
		write func(tr *Tree, i int) error
		want  int
	}{
		{"inserts", func(tr *Tree, i int) error { return tr.Insert(key(i)) }, 3000},
		{"inserts-and-deletes", func(tr *Tree, i int) error {
			if err := tr.Insert(key(i)); err != nil || i%3 != 0 || i < 1500 {
				return err
			}
			return tr.Delete(key(i - 500))
		}, 3000 - 500},
	} {
		t.Run(c.name, func(t *testing.T) {
			tr := newTree(t, 256)
			for i := 0; i < 1000; i++ {
				tr.Insert(key(i))
			}
			stop := make(chan struct{})
			errc := make(chan error, 4)
			for g := 0; g < 3; g++ {
				go func(seed int) {
					i := 0
					for {
						select {
						case <-stop:
							errc <- nil
							return
						default:
						}
						if _, err := tr.Contains(key((seed + i) % 1000)); err != nil {
							errc <- err
							return
						}
						i++
					}
				}(g * 311)
			}
			go func() {
				for {
					select {
					case <-stop:
						errc <- nil
						return
					default:
					}
					want := 0
					err := tr.Scan(key(0), key(1000), func(k []byte) error {
						if !bytes.Equal(k, key(want)) {
							return fmt.Errorf("scan position %d: got key %x", want, k)
						}
						want++
						return nil
					})
					if err == nil && want != 1000 {
						err = fmt.Errorf("scan saw %d of 1000 keys", want)
					}
					if err != nil {
						errc <- err
						return
					}
				}
			}()
			for i := 1000; i < 3000; i++ {
				if err := c.write(tr, i); err != nil {
					t.Fatal(err)
				}
			}
			close(stop)
			for g := 0; g < 4; g++ {
				if err := <-errc; err != nil {
					t.Fatal(err)
				}
			}
			if n, _ := tr.Count(); n != c.want {
				t.Errorf("count = %d, want %d", n, c.want)
			}
		})
	}
}
