package freq

import (
	"sync"
)

// Filter is a counting-bloom presence filter over a view's cached bcp
// keys. The view adds a key exactly when an entry enters its map and
// removes it exactly when the entry leaves, so a negative answer is a
// proof of absence (no false negatives for live entries); a positive
// answer is wrong with the usual bloom false-positive probability,
// which only costs a wasted lookup, never a wrong answer.
//
// Snapshot exports the filter as a plain bitset (bit i set ⇔ counter i
// nonzero) stamped with a generation; a router holds the bitset
// read-only and suppresses probes for keys it proves absent. Staleness
// is one-sided there too: a snapshot that has not seen a later insert
// can suppress a would-be hit — losing a partial, which O3 recomputes
// — but can never fabricate a tuple.
type Filter struct {
	mu     sync.RWMutex
	counts []uint16
	mask   uint32
	hashes int
	keys   int    // live Add-Remove balance
	gen    uint64 // bumped on Reset, so stale snapshots are detectable
}

// NewFilter sizes a filter for about capacity keys at bitsPerKey
// counters each (defaults: 12 counters/key, 8 hashes — FPR ≈ 0.3% at
// full capacity, comfortably under the 1% bench bar). The table is
// rounded up to a power of two.
func NewFilter(capacity, bitsPerKey, hashes int) *Filter {
	if capacity <= 0 {
		capacity = 64
	}
	if bitsPerKey <= 0 {
		bitsPerKey = 12
	}
	if hashes <= 0 {
		hashes = 8
	}
	n := 1
	for n < capacity*bitsPerKey {
		n <<= 1
	}
	return &Filter{
		counts: make([]uint16, n),
		mask:   uint32(n - 1),
		hashes: hashes,
	}
}

// Add records one live entry under key.
func (f *Filter) Add(key string) {
	h1, h2 := hash2(key)
	f.mu.Lock()
	for i := 0; i < f.hashes; i++ {
		j := (h1 + uint32(i)*h2) & f.mask
		if f.counts[j] != ^uint16(0) { // saturate, never wrap
			f.counts[j]++
		}
	}
	f.keys++
	f.mu.Unlock()
}

// Remove forgets one live entry under key. Removing a key that was
// never added corrupts a counting bloom; the view's entry map is the
// single source of truth, so Add/Remove pair exactly by construction
// (CheckInvariants cross-checks Contains for every live entry).
func (f *Filter) Remove(key string) {
	h1, h2 := hash2(key)
	f.mu.Lock()
	for i := 0; i < f.hashes; i++ {
		j := (h1 + uint32(i)*h2) & f.mask
		if f.counts[j] > 0 && f.counts[j] != ^uint16(0) {
			f.counts[j]--
		}
	}
	if f.keys > 0 {
		f.keys--
	}
	f.mu.Unlock()
}

// MayContain reports whether key may have a live entry. False means
// provably absent.
func (f *Filter) MayContain(key string) bool {
	h1, h2 := hash2(key)
	f.mu.RLock()
	defer f.mu.RUnlock()
	for i := 0; i < f.hashes; i++ {
		if f.counts[(h1+uint32(i)*h2)&f.mask] == 0 {
			return false
		}
	}
	return true
}

// Reset clears the filter and advances its generation. The view calls
// it when it drops every entry at once (whole-view invalidation, or
// Drop), in place of one Remove per entry.
func (f *Filter) Reset() {
	f.mu.Lock()
	clear(f.counts)
	f.keys = 0
	f.gen++
	f.mu.Unlock()
}

// Keys returns the live key balance.
func (f *Filter) Keys() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.keys
}

// Gen returns the reset generation.
func (f *Filter) Gen() uint64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.gen
}

// Snapshot exports the filter as a plain bloom bitset plus its
// generation and live-key count. The bitset length is len(counts)/8.
func (f *Filter) Snapshot() (bits []byte, hashes int, gen uint64, keys int) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	bits = make([]byte, len(f.counts)/8)
	for i, c := range f.counts {
		if c > 0 {
			bits[i>>3] |= 1 << (i & 7)
		}
	}
	return bits, f.hashes, f.gen, f.keys
}

// Bitset is a read-only plain-bloom view of a Filter snapshot, held by
// a router for negative-probe suppression. The zero value (or a nil
// pointer) suppresses nothing.
type Bitset struct {
	bits   []byte
	mask   uint32
	hashes int
	Gen    uint64
	Keys   int
}

// NewBitset wraps a Snapshot export. len(bits) must be a power of two;
// anything else returns nil (suppress nothing rather than suppress
// wrongly).
func NewBitset(bits []byte, hashes int, gen uint64, keys int) *Bitset {
	n := len(bits) * 8
	if n == 0 || n&(n-1) != 0 || hashes <= 0 {
		return nil
	}
	return &Bitset{bits: bits, mask: uint32(n - 1), hashes: hashes, Gen: gen, Keys: keys}
}

// MayContain reports whether the snapshot may contain key. A nil
// Bitset answers true (no proof of absence — probe normally).
func (b *Bitset) MayContain(key string) bool {
	if b == nil {
		return true
	}
	h1, h2 := hash2(key)
	for i := 0; i < b.hashes; i++ {
		j := (h1 + uint32(i)*h2) & b.mask
		if b.bits[j>>3]&(1<<(j&7)) == 0 {
			return false
		}
	}
	return true
}
