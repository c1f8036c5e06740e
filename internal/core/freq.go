// freq.go is the view-side surface of the frequency plane
// (internal/freq): negative-probe suppression, popularity-gated
// admission, and the shard half of hot-entry replication.
//
// The filter invariant that makes suppression safe: a key is added to
// the presence filter exactly when an entry enters v.entries and
// removed exactly when its entry leaves, so MayContain == false proves
// no live entry exists and the probe can be skipped without looking.
// The one wrinkle is whole-view invalidation (BumpAllGen), which kills
// every entry at once without traversing the map: there the filter is
// Reset (generation bump), entries stamped with the old filter
// generation are already absent from the new filter, and the lazy
// discard path skips their Remove — removing a non-member from a
// counting bloom would corrupt other keys' counters.
package core

import (
	"fmt"

	"pmv/internal/cache"
	"pmv/internal/freq"
	"pmv/internal/value"
)

// EnableFreq attaches a frequency plane to the view (call before
// serving traffic; nil-safe to skip entirely — every touchpoint is a
// single pointer check when off). The replacement policy is wrapped
// in a cache.Gated admission filter sharing the same sketch, so every
// admission path — including ones without an explicit pre-check — is
// popularity-gated; proven-hot paths (WarmAdmit, ApplyHotSet) bypass
// via the wrapper's Admit.
func (v *View) EnableFreq(cfg freq.Config) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.freq != nil {
		return
	}
	v.freq = freq.New(cfg, v.cfg.MaxEntries)
	// The gate closure runs inside RequestAdmit, which the view only
	// calls with v.mu held — touching v.stats directly is safe.
	v.policy = cache.Gate(v.policy, func(key string) bool {
		return v.admitGateLocked(key, 0, false)
	})
}

// policyIsTwoQueue reports whether the (possibly gated) policy is 2Q,
// whose first RequestAdmit of a fresh key only records it in A1.
func (v *View) policyIsTwoQueue() bool {
	p := v.policy
	if g, ok := p.(*cache.Gated); ok {
		p = g.Unwrap()
	}
	_, ok := p.(*cache.TwoQueue)
	return ok
}

// requestAdmitProvenLocked admits a key whose popularity was proven
// elsewhere (snapshot rewarm, router top-k push), bypassing the
// frequency gate but not the policy itself. Caller holds v.mu.
func (v *View) requestAdmitProvenLocked(key string) (bool, []string) {
	if g, ok := v.policy.(*cache.Gated); ok {
		return g.Admit(key)
	}
	return v.policy.RequestAdmit(key)
}

// Freq returns the attached frequency plane (nil = off).
func (v *View) Freq() *freq.ViewFreq {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.freq
}

// freqAddLocked records a new live entry in the presence filter,
// stamping the entry with the filter generation so a later Remove can
// tell whether the entry is still represented. Caller holds v.mu.
func (v *View) freqAddLocked(key string, e *entry) {
	if v.freq == nil {
		return
	}
	v.freq.Filter.Add(key)
	e.fgen = v.freq.Filter.Gen()
}

// freqRemoveLocked forgets a dying entry, unless a filter Reset since
// its Add already dropped it wholesale. Caller holds v.mu.
func (v *View) freqRemoveLocked(key string, e *entry) {
	if v.freq == nil || e == nil {
		return
	}
	if e.fgen == v.freq.Filter.Gen() {
		v.freq.Filter.Remove(key)
	}
}

// probeFreqLocked runs the frequency plane's per-part probe work:
// touch the sketch (every probe is a popularity observation, hit or
// miss) and consult the presence filter. Returns the key's windowed
// estimate, whether the probe may proceed (false = provably absent,
// suppressed), and updates the suppression/false-positive counters —
// the false-positive check is completed by the caller, which knows
// whether a live entry actually existed. Caller holds v.mu.
func (v *View) probeFreqLocked(key string) (est uint32, proceed bool) {
	if v.freq == nil {
		return 0, true
	}
	est = v.freq.Sketch.Touch(key)
	if !v.freq.Filter.MayContain(key) {
		v.stats.ProbesSuppressed++
		return est, false
	}
	v.stats.FilterPositives++
	return est, true
}

// admitGateLocked reports whether key is popular enough to cache. A
// fresh key (no policy state yet) must clear the sliding threshold;
// keys the policy already tracks were admitted under the gate before.
// Caller holds v.mu.
func (v *View) admitGateLocked(key string, est uint32, haveEst bool) bool {
	if v.freq == nil {
		return true
	}
	if !haveEst {
		est = v.freq.Sketch.Estimate(key)
	}
	if est < v.freq.AdmitThreshold() {
		v.stats.AdmitGateRejects++
		return false
	}
	return true
}

// FilterSnapshot exports the presence filter as a plain bloom bitset
// for router-side suppression. ok is false when the frequency plane is
// off.
func (v *View) FilterSnapshot() (bits []byte, hashes int, gen uint64, keys int, ok bool) {
	v.mu.Lock()
	f := v.freq
	v.mu.Unlock()
	if f == nil {
		return nil, 0, 0, 0, false
	}
	bits, hashes, gen, keys = f.Filter.Snapshot()
	return bits, hashes, gen, keys, true
}

// ApplyHotSet caches hot entries pushed by a router (MsgHotSet): each
// key's tuple set enters the view through the normal entry machinery —
// policy-tracked, generation-stamped, F-bounded, idempotent at entry
// granularity like FillTuples — so local maintenance invalidates a
// replica exactly like an owned entry. seq orders pushes against
// HotInval frames: a push at or below a key's hot floor lost the race
// with an invalidation and is dropped (the stale replica degrades to
// an owner probe, never a wrong answer). The admission gate does not
// apply — the router's top-k already proved popularity — but the
// replacement policy still must accept the key, so replication can
// never overflow the L bound.
func (v *View) ApplyHotSet(seq uint64, keys []string, tuples [][]value.Tuple) (replicated, stale, cached int, err error) {
	if len(keys) != len(tuples) {
		return 0, 0, 0, fmt.Errorf("core: hot set has %d keys, %d tuple groups", len(keys), len(tuples))
	}
	for i, group := range tuples {
		for _, t := range group {
			if len(t) != len(v.selectPlus) {
				return 0, 0, 0, fmt.Errorf("core: hot set key %d tuple arity %d, want %d", i, len(t), len(v.selectPlus))
			}
			if got := v.coder.KeyFromCondValues(v.condValues(t)); got != keys[i] {
				return 0, 0, 0, fmt.Errorf("core: hot set tuple under key %q encodes to %q", keys[i], got)
			}
		}
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.hotFloor == nil {
		v.hotFloor = make(map[string]uint64)
	}
	for i, key := range keys {
		if key == "" || seq <= v.hotFloor[key] {
			stale++
			continue // invalidated at or after this push was cut
		}
		if e, ok := v.liveEntryLocked(key); ok && len(e.tuples) > 0 {
			continue // idempotence: never append to a populated entry
		}
		if !v.policy.Contains(key) {
			adm, evicted := v.requestAdmitProvenLocked(key)
			v.dropEntriesLocked(evicted)
			if !adm {
				// 2Q's first sighting lands in A1; a hot push has already
				// proven reuse, so ask again (same as WarmAdmit).
				if !v.policyIsTwoQueue() {
					continue
				}
				adm, evicted = v.requestAdmitProvenLocked(key)
				v.dropEntriesLocked(evicted)
				if !adm {
					continue
				}
			}
		}
		e, ok := v.entries[key]
		if !ok {
			e = &entry{gen: v.invalSeq}
			v.entries[key] = e
			v.stats.EntriesCreated++
			v.freqAddLocked(key, e)
		}
		for _, t := range tuples[i] {
			if len(e.tuples) >= v.cfg.TuplesPerBCP {
				break // the F bound
			}
			ct := t.Clone()
			e.tuples = append(e.tuples, ct)
			v.stampFillLocked(e, 0)
			v.stats.TuplesCached++
			cached++
			if v.maint != nil {
				v.maint.add(key, ct)
			}
		}
		v.stats.HotSetKeys++
		replicated++
	}
	v.stats.HotSetTuples += int64(cached)
	return replicated, stale, cached, nil
}

// ApplyHotInval invalidates replicated hot keys (MsgHotInval): raise
// each key's hot floor to seq — so an in-flight MsgHotSet cut before
// the invalidation cannot resurrect a stale replica — and bump the
// keys' invalidation generations so a cached replica dies the normal
// lazy death. Returns how many keys currently cached an entry.
func (v *View) ApplyHotInval(seq uint64, keys []string) int {
	v.mu.Lock()
	if v.hotFloor == nil {
		v.hotFloor = make(map[string]uint64)
	}
	for _, k := range keys {
		if seq > v.hotFloor[k] {
			v.hotFloor[k] = seq
		}
	}
	v.stats.HotInvalKeys += int64(len(keys))
	v.mu.Unlock()
	return v.BumpKeyGens(keys)
}
