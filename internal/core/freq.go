// freq.go is the view-side surface of the frequency plane
// (internal/freq): negative-probe suppression, popularity-gated
// admission, and the shard half of hot-entry replication.
//
// The filter invariant that makes suppression safe: a key is added to
// the presence filter exactly when an entry enters v.entries
// (writeEntryLocked; EnableFreq adds the entries a warm view already
// holds) and removed exactly when it leaves (removeKeysLocked);
// resetLocked, which drops every entry at once,
// resets the filter with them. MayContain == false therefore proves no
// entry exists and the probe can be skipped without looking.
// CheckInvariants holds the filter's key count to the entry count.
package core

import (
	"fmt"

	"pmv/internal/cache"
	"pmv/internal/freq"
	"pmv/internal/value"
)

// EnableFreq attaches a frequency plane to the view (nil-safe to skip
// entirely — every touchpoint is a single pointer check when off). A
// warm view's entries enter the new presence filter at once. The
// replacement policy is wrapped in a cache.Gated admission filter
// sharing the same sketch, so every admission path — including ones
// without an explicit pre-check — is popularity-gated; proven-hot paths
// (WarmAdmit, ApplyHotSet) bypass via the wrapper's Admit.
func (v *View) EnableFreq(cfg freq.Config) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.freq != nil {
		return
	}
	v.freq = freq.New(cfg, v.cfg.MaxEntries)
	for key := range v.entries {
		v.freq.Filter.Add(key)
	}
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

// Freq returns the attached frequency plane (nil = off).
func (v *View) Freq() *freq.ViewFreq {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.freq
}

// freqAddLocked records a new entry in the presence filter. Caller
// holds v.mu.
func (v *View) freqAddLocked(key string) {
	if v.freq != nil {
		v.freq.Filter.Add(key)
	}
}

// freqRemoveLocked forgets a removed entry. Caller holds v.mu.
func (v *View) freqRemoveLocked(key string) {
	if v.freq != nil {
		v.freq.Filter.Remove(key)
	}
}

// probeFreqLocked runs the frequency plane's per-part probe work:
// touch the sketch (every probe is a popularity observation, hit or
// miss) and consult the presence filter. Returns the key's windowed
// estimate, whether the probe may proceed (false = provably absent,
// suppressed), and updates the suppression/false-positive counters —
// the false-positive check is completed by the caller, which knows
// whether an entry actually existed. Caller holds v.mu.
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

// ApplyHotSet caches hot entries pushed by a router (MsgHotSet)
// through putLocked, so a replica is maintained and invalidated exactly
// like an owned entry. seq orders pushes against HotInval frames: a
// push at or below a key's hot floor lost the race with an
// invalidation and is dropped (the stale replica degrades to an owner
// probe, never a wrong answer). The router's top-k proved popularity,
// so the admission gate does not apply, but the policy must still
// accept the key: replication never overflows the L bound.
func (v *View) ApplyHotSet(seq uint64, keys []string, tuples [][]value.Tuple) (replicated, stale, cached int, err error) {
	if len(keys) != len(tuples) {
		return 0, 0, 0, fmt.Errorf("core: hot set has %d keys, %d tuple groups", len(keys), len(tuples))
	}
	for i, group := range tuples {
		if err := v.checkEntry(keys[i], group); err != nil {
			return 0, 0, 0, fmt.Errorf("core: hot set key %q: %w", keys[i], err)
		}
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	for i, key := range keys {
		if key == "" || seq <= v.hotFloor[key] {
			stale++
			continue // invalidated at or after this push was cut
		}
		e := v.putLocked(key, tuples[i], true)
		if e == nil {
			continue
		}
		cached += len(e.tuples)
		v.stats.HotSetKeys++
		replicated++
	}
	v.stats.HotSetTuples += int64(cached)
	return replicated, stale, cached, nil
}

// ApplyHotInval invalidates replicated hot keys (MsgHotInval): raise
// each key's hot floor to seq — so an in-flight MsgHotSet cut before
// the invalidation cannot resurrect a stale replica — and remove the
// keys' entries. Returns how many keys had an entry.
func (v *View) ApplyHotInval(seq uint64, keys []string) int {
	v.mu.Lock()
	for _, k := range keys {
		if seq > v.hotFloor[k] {
			v.hotFloor[k] = seq
		}
	}
	v.stats.HotInvalKeys += int64(len(keys))
	v.mu.Unlock()
	return v.InvalidateKeys(keys)
}
