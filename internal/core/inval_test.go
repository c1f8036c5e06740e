package core

import (
	"fmt"
	"testing"
	"time"

	"pmv/internal/freq"
	"pmv/internal/value"
)

// TestInvalidatedEntryIsGone: an invalidated entry leaves the view at
// once, so nothing that reads the view — the EXISTS shortcut, the
// popularity ranking, the snapshot writer, the size accessors — sees
// it afterwards, and a later query fills the key afresh. Invalidation
// comes by key, for the whole view, and from a failed DS audit; each
// runs with the frequency plane off and on.
func TestInvalidatedEntryIsGone(t *testing.T) {
	invalidations := []struct {
		name string
		// tuples is what the invalidated entry held when it was removed.
		tuples int64
		apply  func(t *testing.T, v *View)
	}{
		{"keys", 2, func(t *testing.T, v *View) {
			var keys []string
			if err := v.SnapshotEntries(func(key string, _ int64, _ []value.Tuple) error {
				keys = append(keys, key)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if n := v.InvalidateKeys(append(keys, "no-such-key")); n != len(keys) {
				t.Fatalf("InvalidateKeys reported %d entries, want %d", n, len(keys))
			}
		}},
		{"all", 2, func(t *testing.T, v *View) { v.InvalidateAll() }},
		{"audit", 2, func(t *testing.T, v *View) {
			// A select-list change the detached view is not told about:
			// the next query's DS audit fails and invalidates the parts
			// it served. A failed audit commits nothing, so the entry
			// still holds only the two stale tuples it served.
			unmark(t, v.eng)
			v.eng.UnregisterObserver(v)
			if _, err := v.eng.UpdateWhere("S",
				func(tu value.Tuple) bool { return tu[0].Int64() == 1002 },
				func(tu value.Tuple) value.Tuple { tu[1] = value.Int(-1); return tu }); err != nil {
				t.Fatal(err)
			}
			q := eqQuery(v.cfg.Template, []int64{1}, []int64{2})
			if _, err := v.ExecutePartial(q, func(Result) error { return nil }); err == nil {
				t.Fatal("stale cached tuples passed the DS audit")
			}
		}},
	}
	for _, inv := range invalidations {
		for _, freqOn := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/freq=%v", inv.name, freqOn), func(t *testing.T) {
				eng, tpl := testDB(t)
				loadFig1(t, eng, 4, 4, 2)
				v, err := NewView(eng, Config{Template: tpl, MaxEntries: 100, TuplesPerBCP: 5})
				if err != nil {
					t.Fatal(err)
				}
				if freqOn {
					v.EnableFreq(freq.Config{Window: time.Hour, AdmitThreshold: 1})
				}
				q := eqQuery(tpl, []int64{1}, []int64{2})
				runPartial(t, v, q)
				if _, proven, _ := v.ExistsFast(q); !proven || v.Len() != 1 || v.TupleCount() != 2 {
					t.Fatalf("warm view: proven=%v, %d entries, %d tuples; want true, 1, 2", proven, v.Len(), v.TupleCount())
				}

				inv.apply(t, v)

				if _, proven, _ := v.ExistsFast(q); proven {
					t.Error("ExistsFast proved existence from an invalidated entry")
				}
				if hot := v.HottestTuples(10); len(hot) != 0 {
					t.Errorf("HottestTuples ranks %d invalidated tuples", len(hot))
				}
				if err := v.SnapshotEntries(func(key string, _ int64, _ []value.Tuple) error {
					return fmt.Errorf("snapshot saw invalidated entry %q", key)
				}); err != nil {
					t.Error(err)
				}
				if v.Len() != 0 || v.TupleCount() != 0 || v.SizeBytes() != 0 {
					t.Errorf("after invalidation: %d entries, %d tuples, %d bytes; want 0, 0, 0", v.Len(), v.TupleCount(), v.SizeBytes())
				}
				if st := v.Stats(); st.EntriesInvalidated != 1 || st.TuplesInvalidated != inv.tuples {
					t.Errorf("counted %d entries, %d tuples invalidated; want 1, %d", st.EntriesInvalidated, st.TuplesInvalidated, inv.tuples)
				}
				if err := v.CheckInvariants(); err != nil {
					t.Error(err)
				}

				// The key is still tracked: the next query refills it.
				got, _ := runPartial(t, v, q)
				if want := runFull(t, eng, tpl, q); !equalStrings(got, want) {
					t.Fatalf("refill query results differ:\n got %v\nwant %v", got, want)
				}
				if v.Len() != 1 {
					t.Errorf("refill left %d entries, want 1", v.Len())
				}
				if err := v.CheckInvariants(); err != nil {
					t.Error(err)
				}
			})
		}
	}
}
