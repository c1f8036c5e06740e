package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"pmv/internal/keycodec"
	"pmv/internal/value"
)

// take is takeKey for tup's encoding, written into *buf.
func (t *dsTable) take(buf *[]byte, tup value.Tuple) bool {
	*buf = keycodec.AppendTuple((*buf)[:0], tup)
	return t.takeKey(*buf)
}

// dsTuples returns n Ls′-shaped tuples over k distinct values, so most
// repeat: the duplicates a join result can hold.
func dsTuples(rng *rand.Rand, n, k int) []value.Tuple {
	out := make([]value.Tuple, n)
	for i := range out {
		x := rng.Intn(k)
		out[i] = value.Tuple{value.Int(int64(x)), value.Str(fmt.Sprintf("clerk#%03d", x%7)), value.Date(int64(x % 3))}
	}
	return out
}

// TestDSTableMultiset holds the DS table to a map[string]int multiset
// over tuples with many duplicates, across slot growth: every take
// succeeds exactly as often as the tuple was added, a take of an absent
// tuple fails, the tokens left match the oracle's, and a table reused
// from the pool starts empty.
func TestDSTableMultiset(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var buf []byte
	for round, n := range []int{0, 5, 64, 700} {
		ds := newDS()
		if ds.left != 0 || ds.take(&buf, value.Tuple{value.Int(0)}) {
			t.Fatalf("round %d: a table from the pool is not empty", round)
		}
		oracle := map[string]int{}
		for _, tup := range dsTuples(rng, n, 1+n/3) {
			ds.add(tup)
			oracle[string(value.EncodeTuple(nil, tup))]++
		}
		for _, tup := range dsTuples(rng, 2*n+10, 1+n/2) {
			key := string(value.EncodeTuple(nil, tup))
			want := oracle[key] > 0
			if want {
				oracle[key]--
			}
			if got := ds.take(&buf, tup); got != want {
				t.Fatalf("round %d: take(%v) = %v, oracle %v", round, tup, got, want)
			}
		}
		if ds.take(&buf, value.Tuple{value.Str("absent")}) {
			t.Fatalf("round %d: took a token of a tuple never added", round)
		}
		left := 0
		for _, c := range oracle {
			left += c
		}
		if ds.left != left {
			t.Fatalf("round %d: %d tokens left, oracle %d", round, ds.left, left)
		}
		ds.release()
	}
}

// TestDSZeroAlloc pins the DS cost of a warm query: a pooled table that
// records 64 delivered tuples, duplicates included, and then takes them
// back allocates nothing.
func TestDSZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool items at random; allocation counts do not repeat")
	}
	tuples := dsTuples(rand.New(rand.NewSource(2)), 64, 20)
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(100, func() {
		ds := newDS()
		for _, tup := range tuples {
			ds.add(tup)
		}
		for _, tup := range tuples {
			if !ds.take(&buf, tup) {
				t.Fatal("a delivered tuple was not in DS")
			}
		}
		ds.release()
	}); n != 0 {
		t.Fatalf("DS allocates %v per query when warm", n)
	}
}

// TestAuditCountsTokens: when two identical cached tuples go stale, the
// DS audit reports both undelivered tokens, not the one distinct tuple.
func TestAuditCountsTokens(t *testing.T) {
	eng, tpl := testDB(t)
	for i := 0; i < 2; i++ { // two equal R rows: two equal result tuples
		if err := eng.Insert("R", value.Tuple{value.Int(7), value.Int(50), value.Int(1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Insert("S", value.Tuple{value.Int(50), value.Int(350), value.Int(2)}); err != nil {
		t.Fatal(err)
	}
	v, err := NewView(eng, Config{Template: tpl, MaxEntries: 10, TuplesPerBCP: 5})
	if err != nil {
		t.Fatal(err)
	}
	q := eqQuery(tpl, []int64{1}, []int64{2})
	runPartial(t, v, q) // cache both
	if _, rep := runPartial(t, v, q); rep.PartialTuples != 2 {
		t.Fatalf("served %d cached tuples, want the 2 equal ones", rep.PartialTuples)
	}
	unmark(t, eng)
	eng.UnregisterObserver(v) // a change the view is not told about
	if _, err := eng.UpdateWhere("S",
		func(tu value.Tuple) bool { return tu[0].Int64() == 50 },
		func(tu value.Tuple) value.Tuple { tu[1] = value.Int(-1); return tu }); err != nil {
		t.Fatal(err)
	}
	_, err = v.ExecutePartial(q, func(Result) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "core: 2 partial tuples not found") {
		t.Fatalf("audit error %v, want it to count 2 tokens", err)
	}
}
