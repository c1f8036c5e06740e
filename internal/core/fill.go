// fill.go writes the view's entries. O3 refreshes the view "for free"
// (Section 3.3): Fill stages a copy of each fresh O3 row under its bcp,
// and Refill, which Run calls only after a passed audit or a truncated
// O3, commits them. Every entry writer goes through admitLocked and
// writeEntryLocked. An entry's tuple slice is never written into, since
// readers range over it outside v.mu; only the purge, under X, edits it.
package core

import (
	"fmt"

	"pmv/internal/cache"
	"pmv/internal/value"
)

// stagedBCP is one bcp of a query's fill table: the entry O2 met (nil:
// none) with its tuples as O2 served them, whether the fill is off for
// the bcp (the policy declined it in O2, or two of the query's parts
// met different slices, so DS holds tokens of both), and next: seen,
// then copies of fresh O3 rows, at most F; nil until a row is staged.
type stagedBCP struct {
	key      string
	e        *entry
	seen     []value.Tuple
	declined bool
	next     []value.Tuple
}

// fillTable is one query's fill state by bcp, at most F tuples each.
// idx maps the keys of bcps[:indexed]; it is built only when a lookup
// needs it, so a query whose parts are all exact and whose O3 stages
// nothing hashes no key.
type fillTable struct {
	idx     map[string]int32
	indexed int
	bcps    []stagedBCP
}

// saw records that O2 met e (nil: no entry) under cp's bcp and returns
// the bcp's record. Only inexact parts can share a bcp (the query's
// disjuncts are disjoint), so only they look for an earlier record.
func (t *fillTable) saw(cp *ConditionPart, e *entry) *stagedBCP {
	var seen []value.Tuple
	if e != nil {
		seen = e.tuples
	}
	if !cp.Exact {
		t.index()
		if i, ok := t.idx[cp.BCPKey]; ok {
			b := &t.bcps[i]
			b.declined = b.declined || b.e != e || len(b.seen) != len(seen) || len(seen) > 0 && &b.seen[0] != &seen[0]
			return b
		}
	}
	t.bcps = append(t.bcps, stagedBCP{key: cp.BCPKey, e: e, seen: seen})
	return &t.bcps[len(t.bcps)-1]
}

// index adds the records appended since its last call to idx.
func (t *fillTable) index() {
	if t.idx == nil {
		t.idx = make(map[string]int32)
	}
	for ; t.indexed < len(t.bcps); t.indexed++ {
		t.idx[t.bcps[t.indexed].key] = int32(t.indexed)
	}
}

// Fill stages a copy of the fresh O3 row t under its bcp, unless the
// bcp is declined or holds F tuples counting those O2 served. It takes
// no lock. A bcp O2 did not probe (O1 skipped the view) has seen none.
func (s *localSource) Fill(t value.Tuple) {
	f := s.v.cfg.TuplesPerBCP
	s.condVals = s.condVals[:0]
	for _, p := range s.v.condPos {
		s.condVals = append(s.condVals, t[p])
	}
	s.key = s.v.coder.AppendKey(s.key[:0], s.condVals)
	s.fills.index()
	i, ok := s.fills.idx[string(s.key)]
	if !ok {
		i = int32(len(s.fills.bcps))
		s.fills.bcps = append(s.fills.bcps, stagedBCP{key: string(s.key)})
	}
	b := &s.fills.bcps[i]
	if b.declined || max(len(b.seen), len(b.next)) >= f {
		return
	}
	if b.next == nil {
		b.next = append(make([]value.Tuple, 0, f), b.seen...)
	}
	b.next = append(b.next, t.Clone())
}

// commit is O3's view refresh: under v.mu, taken once, each bcp with
// staged rows is admitted once and its entry becomes next. Maintenance
// needs the X lock, so all that readers commit under one S lock is a
// sub-multiset of one answer: a second reader's commit replaces the
// first's and cannot cache a tuple twice. If the entry O2 met has left
// the view since, seen goes with it. Returns the tuples cached and the
// entries created and evicted, for the trace's refill event.
func (v *View) commit(t *fillTable) (tuples, entries, evicted int64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for i := range t.bcps {
		b := &t.bcps[i]
		if b.next == nil {
			continue
		}
		adm, dropped := v.admitLocked(b.key, false)
		evicted += int64(dropped)
		if !adm {
			continue
		}
		ts := b.next
		if v.entries[b.key] != b.e {
			ts = ts[len(b.seen):]
		}
		if _, created := v.writeEntryLocked(b.key, ts); created {
			entries++
		}
		tuples += int64(len(b.next) - len(b.seen))
	}
	v.stats.TuplesCached += tuples
	return tuples, entries, evicted
}

// admitLocked reports whether key may hold an entry, asking the policy
// when it does not track key yet: through the popularity gate, or, for
// a key proven hot elsewhere (a hot-set push, a warm restart), past it
// and twice, since only 2Q declines and its first request only records
// a key. Also returns the entries the admission evicted. Caller holds
// v.mu.
func (v *View) admitLocked(key string, proven bool) (bool, int) {
	if v.policy.Contains(key) {
		return true, 0
	}
	if !proven && !v.admitGateLocked(key, 0, false) {
		return false, 0
	}
	request := v.policy.RequestAdmit
	if g, ok := v.policy.(*cache.Gated); proven && ok {
		request = g.Admit
	}
	dropped := 0
	for try := 0; ; try++ {
		adm, evicted := request(key)
		dropped += v.removeKeysLocked(evicted, &v.stats.EntriesEvicted, &v.stats.TuplesEvicted)
		if adm || !proven || try == 1 {
			return adm, dropped
		}
	}
}

// writeEntryLocked makes ts, a slice of the view's own of at most F
// tuples, key's entry's content, creating the entry when absent. Caller
// holds v.mu.
func (v *View) writeEntryLocked(key string, ts []value.Tuple) (e *entry, created bool) {
	e, ok := v.entries[key]
	if !ok {
		e = &entry{key: key}
		v.entries[key] = e
		v.maint.register(e)
		v.stats.EntriesCreated++
		v.freqAddLocked(key)
	}
	v.maint.unindex(e)
	e.tuples = ts
	for slot := range ts {
		v.maint.add(e, slot)
	}
	return e, !ok
}

// putLocked writes key's entry for the writers that do not run O3 (a
// routed refill, a hot-set push, a warm restart): copies of up to F of
// ts, if key is admitted and its entry absent or empty. A populated
// entry is left alone, so a repeated delivery cannot cache a tuple
// twice. Returns the entry written, or nil. Caller holds v.mu.
func (v *View) putLocked(key string, ts []value.Tuple, proven bool) *entry {
	if e, ok := v.entries[key]; ok && len(e.tuples) > 0 {
		return nil
	}
	if adm, _ := v.admitLocked(key, proven); !adm {
		return nil
	}
	own := make([]value.Tuple, min(len(ts), v.cfg.TuplesPerBCP))
	for i := range own {
		own[i] = ts[i].Clone()
	}
	v.stats.TuplesCached += int64(len(own))
	e, _ := v.writeEntryLocked(key, own)
	return e
}

// checkEntry reports whether every tuple of ts is an Ls′ row under the
// bcp key, so that nothing sent from outside can plant a mismatched
// entry.
func (v *View) checkEntry(key string, ts []value.Tuple) error {
	for _, t := range ts {
		if len(t) != len(v.selectPlus) {
			return fmt.Errorf("tuple arity %d, want %d", len(t), len(v.selectPlus))
		}
		if got := v.coder.KeyFromCondValues(v.condValues(t)); got != key {
			return fmt.Errorf("tuple encodes to bcp %q", got)
		}
	}
	return nil
}
