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
	es := make([]*entry, 0, len(v.entries))
	for _, e := range v.entries {
		es = append(es, e)
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].accesses != es[j].accesses {
			return es[i].accesses > es[j].accesses
		}
		return es[i].key < es[j].key
	})
	for _, e := range es {
		if err := fn(e.key, e.accesses, e.tuples); err != nil {
			return err
		}
	}
	return nil
}

// WarmAdmit re-admits one snapshot entry after a restart through
// putLocked, as proven hot: it was hot enough to be snapshotted. Every
// tuple is first checked against the view's own coder (checkEntry), so
// a snapshot that passed its section checksums but disagrees with the
// view definition cannot plant a mismatched entry. Returns the number
// of tuples cached (0: policy-declined, or the key's entry already
// holds tuples) or the validation failure.
func (v *View) WarmAdmit(key string, accesses int64, tuples []value.Tuple) (int, error) {
	if key == "" {
		return 0, fmt.Errorf("core: warm admit: empty bcp key")
	}
	if err := v.checkEntry(key, tuples); err != nil {
		return 0, fmt.Errorf("core: warm admit %q: %w", key, err)
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	e := v.putLocked(key, tuples, true)
	if e == nil {
		return 0, nil
	}
	e.accesses = accesses
	return len(e.tuples), nil
}
