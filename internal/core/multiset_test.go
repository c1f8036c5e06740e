package core

import (
	"fmt"
	"testing"

	"pmv/internal/expr"
	"pmv/internal/value"
)

// TestDuplicateResultsDeliveredExactly verifies the paper's multiset
// argument for DS (Operation O2/O3): when the query result legitimately
// contains k identical tuples, the view path delivers exactly k — the
// DS token-counting prevents both loss and double delivery.
func TestDuplicateResultsDeliveredExactly(t *testing.T) {
	eng, tpl := testDB(t)
	// Three identical R tuples joining one S tuple → the (a, e) result
	// appears three times.
	for i := 0; i < 3; i++ {
		if err := eng.Insert("R", value.Tuple{value.Int(5), value.Int(1001), value.Int(1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Insert("S", value.Tuple{value.Int(1001), value.Int(50), value.Int(1)}); err != nil {
		t.Fatal(err)
	}
	v, err := NewView(eng, Config{Template: tpl, MaxEntries: 10, TuplesPerBCP: 2})
	if err != nil {
		t.Fatal(err)
	}
	q := eqQuery(tpl, []int64{1}, []int64{1})

	for run := 0; run < 3; run++ {
		count := 0
		partials := 0
		rep, err := v.ExecutePartial(q, func(r Result) error {
			count++
			if r.Partial {
				partials++
			}
			return nil
		})
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if count != 3 {
			t.Fatalf("run %d: delivered %d copies, want 3", run, count)
		}
		// With F = 2, at most 2 copies come from the cache; the third
		// must arrive from execution (one DS token per cached copy).
		if run > 0 {
			if partials != 2 {
				t.Errorf("run %d: %d partial copies, want 2 (F bound)", run, partials)
			}
			if rep.TotalTuples != 3 {
				t.Errorf("run %d: report total %d", run, rep.TotalTuples)
			}
		}
	}
}

// TestDuplicatePartialsPurgedTogether checks maintenance on duplicated
// cached tuples: deleting one of the identical base tuples purges one
// cached occurrence per derived join row, not all of them.
func TestDuplicateCachedTuplesSurviveSingleDelete(t *testing.T) {
	eng, tpl := testDB(t)
	for i := 0; i < 2; i++ {
		if err := eng.Insert("R", value.Tuple{value.Int(5), value.Int(1001), value.Int(1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Insert("S", value.Tuple{value.Int(1001), value.Int(50), value.Int(1)}); err != nil {
		t.Fatal(err)
	}
	v, err := NewView(eng, Config{Template: tpl, MaxEntries: 10, TuplesPerBCP: 5})
	if err != nil {
		t.Fatal(err)
	}
	q := eqQuery(tpl, []int64{1}, []int64{1})
	runPartial(t, v, q) // caches both copies

	// Delete ONE of the two identical R tuples.
	removed := false
	if _, err := eng.DeleteWhere("R", func(tu value.Tuple) bool {
		if !removed && tu[1].Int64() == 1001 {
			removed = true
			return true
		}
		return false
	}); err != nil {
		t.Fatal(err)
	}
	got, _ := runPartial(t, v, q)
	want := runFull(t, eng, tpl, q)
	if !equalStrings(got, want) {
		t.Fatalf("after single-copy delete:\n got %v\nwant %v", got, want)
	}
	if len(want) != 1 {
		t.Fatalf("expected exactly 1 surviving result, oracle has %d", len(want))
	}
}

// TestConcurrentMissesCacheOnce pins the refill half of the multiset
// argument under concurrency: queries that miss the same bcp at the
// same moment all produce its result tuples in O3, but the entry must
// end up holding each of them once. A doubled cached tuple is streamed
// twice by the next query's O2, matched once by its O3, and fails that
// query's DS audit.
func TestConcurrentMissesCacheOnce(t *testing.T) {
	eng, tpl := testDB(t)
	loadFig1(t, eng, 8, 8, 3)
	for round := 0; round < 20; round++ {
		v, err := NewView(eng, Config{Template: tpl, MaxEntries: 64, TuplesPerBCP: 4})
		if err != nil {
			t.Fatal(err)
		}
		for f := int64(0); f < 8; f++ {
			q := eqQuery(tpl, []int64{f}, []int64{f})
			want := len(runFull(t, eng, tpl, q))
			start := make(chan struct{})
			errs := make(chan error, 4)
			for g := 0; g < 4; g++ {
				go func() {
					<-start
					_, err := v.ExecutePartial(q, func(Result) error { return nil })
					errs <- err
				}()
			}
			close(start)
			for g := 0; g < 4; g++ {
				if err := <-errs; err != nil {
					t.Fatalf("round %d key %d: concurrent query: %v", round, f, err)
				}
			}
			got, _ := runPartial(t, v, q)
			if len(got) != want {
				t.Fatalf("round %d key %d: %d rows after concurrent misses, want %d", round, f, len(got), want)
			}
		}
		v.Drop()
	}
}

// TestTwoReadersMissOneBCP: reader A's emit, on its first O3 row, runs
// reader B's whole query for the same bcp while A holds its S lock. B
// commits first and A's commit replaces B's entry, so the entry holds
// each tuple once and the next query's partials plus its O3 equal plain
// execution. A meets the bcp absent (cold) or holding part of its
// answer after a purge (partial).
func TestTwoReadersMissOneBCP(t *testing.T) {
	for _, partial := range []bool{false, true} {
		t.Run(fmt.Sprintf("partial=%v", partial), func(t *testing.T) {
			eng, tpl := testDB(t)
			loadFig1(t, eng, 4, 4, 3)
			v, err := NewView(eng, Config{Template: tpl, MaxEntries: 16, TuplesPerBCP: 10})
			if err != nil {
				t.Fatal(err)
			}
			q := eqQuery(tpl, []int64{1}, []int64{2})
			if partial {
				cacheTwoOfThree(t, v, q)
			}
			want := runFull(t, eng, tpl, q)

			var gotA []string
			ranB := false
			_, err = v.ExecutePartial(q, func(r Result) error {
				gotA = append(gotA, r.Tuple.String())
				if r.Partial || ranB {
					return nil
				}
				ranB = true
				if gotB, _ := runPartial(t, v, q); !equalStrings(gotB, want) {
					t.Errorf("reader B:\n got %v\nwant %v", gotB, want)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if !ranB || len(gotA) != len(want) {
				t.Fatalf("reader A: %d rows, B ran: %v; want %d rows and B run", len(gotA), ranB, len(want))
			}

			seen := make(map[string]bool)
			if err := v.SnapshotEntries(func(key string, _ int64, tuples []value.Tuple) error {
				for _, tu := range tuples {
					if seen[tu.String()] {
						return fmt.Errorf("entry %q caches %s twice", key, tu)
					}
					seen[tu.String()] = true
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if len(seen) != len(want) {
				t.Errorf("entry holds %d tuples, the bcp's answer %d", len(seen), len(want))
			}
			if err := v.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			got, rep := runPartial(t, v, q)
			if !equalStrings(got, want) || rep.PartialTuples != len(want) {
				t.Fatalf("next query: %d partials, rows\n %v\nwant all %d of\n %v", rep.PartialTuples, got, len(want), want)
			}
		})
	}
}

// cacheTwoOfThree caches (1,2)'s three tuples in v, purges one and adds
// another result row, so the entry holds two of the bcp's three.
func cacheTwoOfThree(t *testing.T, v *View, q *expr.Query) {
	t.Helper()
	runPartial(t, v, q)
	if _, err := v.eng.DeleteWhere("R", func(tu value.Tuple) bool { return tu[0].Int64() == 10021 }); err != nil {
		t.Fatal(err)
	}
	if err := v.eng.Insert("R", value.Tuple{value.Int(10029), value.Int(1002), value.Int(1)}); err != nil {
		t.Fatal(err)
	}
	if v.TupleCount() != 2 {
		t.Fatalf("after the purge the entry holds %d tuples, want 2", v.TupleCount())
	}
}

// TestCommitAfterInvalidation: an entry invalidated while a reader's O3
// runs does not come back with that reader's commit. The commit writes
// the row O3 staged, not the two tuples O2 met in the removed entry.
func TestCommitAfterInvalidation(t *testing.T) {
	eng, tpl := testDB(t)
	loadFig1(t, eng, 4, 4, 3)
	v, err := NewView(eng, Config{Template: tpl, MaxEntries: 16, TuplesPerBCP: 10})
	if err != nil {
		t.Fatal(err)
	}
	q := eqQuery(tpl, []int64{1}, []int64{2})
	cacheTwoOfThree(t, v, q)
	key := v.coder.KeyFromCondValues([]value.Value{value.Int(1), value.Int(2)})
	if _, err := v.ExecutePartial(q, func(r Result) error {
		if !r.Partial {
			v.InvalidateKeys([]string{key})
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n := v.TupleCount(); n != 1 {
		t.Fatalf("the entry holds %d tuples after its invalidation, want the 1 staged row", n)
	}
	got, _ := runPartial(t, v, q)
	if want := runFull(t, eng, tpl, q); !equalStrings(got, want) {
		t.Fatalf("next query:\n got %v\nwant %v", got, want)
	}
}
