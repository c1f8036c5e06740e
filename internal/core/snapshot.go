package core

import (
	"fmt"
	"sort"

	"pmv/internal/value"
)

// Warm-restart support: dumping a view's entries into a snapshot and
// admitting validated entries back after a reboot. The snapshot layer
// (internal/snapshot) owns the on-disk format; the view only exposes
// its content in popularity order and re-applies entries through the
// normal admission machinery so every invariant (L, F, policy
// tracking) holds by construction.

// SnapshotEntries calls fn for every entry, hottest first (descending
// access count, then key for determinism), holding the view lock for
// the whole iteration. fn must not call back into the view; the tuples
// slice is shared and must not be retained or mutated after fn
// returns. A snapshot writer that truncates for space therefore keeps
// the entries most worth rewarming.
func (v *View) SnapshotEntries(fn func(key string, accesses int64, tuples []value.Tuple) error) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	type row struct {
		key string
		e   *entry
	}
	rows := make([]row, 0, len(v.entries))
	for k, e := range v.entries {
		rows = append(rows, row{k, e})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].e.accesses != rows[j].e.accesses {
			return rows[i].e.accesses > rows[j].e.accesses
		}
		return rows[i].key < rows[j].key
	})
	for _, r := range rows {
		if err := fn(r.key, r.e.accesses, r.e.tuples); err != nil {
			return err
		}
	}
	return nil
}

// WarmAdmit re-admits one snapshot entry after a restart. Every tuple
// is revalidated against the view's own coder — arity must match Ls′
// and the tuple must encode back to key — so a snapshot that passed
// its section checksums but disagrees with the view definition can
// never plant a mismatched entry. Admission goes through the
// replacement policy: for 2Q a fresh key's first RequestAdmit only
// records it in A1, so a second request promotes it (the entry was
// hot enough to be snapshotted — it has already proven reuse).
// Returns the number of tuples cached (0, policy-declined or key
// already present) or an error describing the validation failure.
func (v *View) WarmAdmit(key string, accesses int64, tuples []value.Tuple) (int, error) {
	if key == "" {
		return 0, fmt.Errorf("core: warm admit: empty bcp key")
	}
	if len(tuples) > v.cfg.TuplesPerBCP {
		tuples = tuples[:v.cfg.TuplesPerBCP] // the F bound
	}
	for _, t := range tuples {
		if len(t) != len(v.selectPlus) {
			return 0, fmt.Errorf("core: warm admit %q: tuple arity %d, want %d", key, len(t), len(v.selectPlus))
		}
		if got := v.coder.KeyFromCondValues(v.condValues(t)); got != key {
			return 0, fmt.Errorf("core: warm admit %q: tuple encodes to bcp %q", key, got)
		}
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if _, dup := v.entries[key]; dup {
		return 0, nil
	}
	if !v.policy.Contains(key) {
		adm, evicted := v.requestAdmitProvenLocked(key)
		v.dropEntriesLocked(evicted)
		if !adm {
			if !v.policyIsTwoQueue() {
				return 0, nil
			}
			adm, evicted = v.requestAdmitProvenLocked(key)
			v.dropEntriesLocked(evicted)
			if !adm {
				return 0, nil
			}
		}
	}
	e := v.newEntryLocked(key)
	e.accesses = accesses
	for _, t := range tuples {
		v.cacheTupleLocked(e, t)
	}
	return len(e.tuples), nil
}
