// fill.go writes the view's entries. O3 refreshes the view "for free"
// (Section 3.3): Fill stages a copy of each fresh O3 row under its bcp,
// and Refill, which Run calls only after a passed audit or a truncated
// O3, commits them. Every entry writer goes through admitLocked and
// writeEntryLocked. An entry's tuple slice is never written into, since
// readers range over it outside v.mu; only the purge, under X, edits it.
//
// An entry is either its bcp's whole answer or F tuples of it. The
// commit marks the first kind complete when it can prove it: the part
// was exact and O3 ran over all of it to its end, every fresh row fit
// under F, the entry O2 met is still the one installed, and no insert
// reached the view since O2. Writers that do not run O3 (putLocked)
// never mark.
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
// exact is the probed part's (false for a bcp no part probed);
// overflow is set when a fresh row did not fit under F.
type stagedBCP struct {
	key      string
	e        *entry
	seen     []value.Tuple
	declined bool
	exact    bool
	overflow bool
	next     []value.Tuple
}

// fillTable is one query's fill state by bcp, at most F tuples each.
// idx maps the keys of bcps[:indexed]; it is built only when a lookup
// needs it, so a query whose parts are all exact and whose O3 stages
// nothing hashes no key. seq is the view's insert count as O2 began,
// ran is set when O3 ran to its end, and stray when O3 staged a row
// under a bcp no part probed.
type fillTable struct {
	idx     map[string]int32
	indexed int
	bcps    []stagedBCP
	seq     uint64
	ran     bool
	stray   bool
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
			b.declined = b.declined || b.e != e || !sameTuples(b.seen, seen)
			return b
		}
	}
	t.bcps = append(t.bcps, stagedBCP{key: cp.BCPKey, e: e, seen: seen, exact: cp.Exact})
	return &t.bcps[len(t.bcps)-1]
}

// sameTuples reports whether a and b are one slice.
func sameTuples(a, b []value.Tuple) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
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
		s.fills.stray = true
	}
	b := &s.fills.bcps[i]
	if b.declined {
		return
	}
	if max(len(b.seen), len(b.next)) >= f {
		b.overflow = true
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
// the view since, seen goes with it. An entry that is now its bcp's
// whole answer is marked complete (the file comment's rule), also when
// O3 staged nothing for it. Returns the tuples cached and the entries
// created and evicted, for the trace's refill event.
func (v *View) commit(t *fillTable) (tuples, entries, evicted int64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	mark := t.ran && !t.stray && t.seq == v.insertSeq
	for i := range t.bcps {
		b := &t.bcps[i]
		whole := mark && b.exact && !b.declined && !b.overflow
		if b.next == nil {
			if e := b.e; whole && e != nil && v.entries[b.key] == e && sameTuples(e.tuples, b.seen) {
				e.completeSeq = v.insertSeq
			}
			continue
		}
		adm, dropped := v.admitLocked(b.key, false)
		evicted += int64(dropped)
		if !adm {
			continue
		}
		ts := b.next
		if v.entries[b.key] != b.e {
			ts, whole = ts[len(b.seen):], false
		}
		e, created := v.writeEntryLocked(b.key, ts)
		if created {
			entries++
		}
		if whole {
			e.completeSeq = v.insertSeq
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
	e.completeSeq = 0
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
