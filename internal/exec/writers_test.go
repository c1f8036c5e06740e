package exec_test

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"pmv"
	"pmv/internal/exec"
)

// TestPlainKeyJoinBesideWriters runs plain key-only queries through
// DB.Execute, which takes no view lock, beside writers that insert and
// delete probe-side rows, some of them while a query's probe walk is
// paused after its first leaf: the query's own first row does a burst of
// inserts at the keys it has just read, splitting the leaf it paused in,
// and deletes rows it has not reached. Each row must be a join row of
// rows that existed, no row may come out twice, and the rows no writer
// touches must all come out. Run with -race.
func TestPlainKeyJoinBesideWriters(t *testing.T) {
	db, err := pmv.Open(t.TempDir(), pmv.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	// r(id, c, k) is small and builds; s(id, c, k, pad) is big, its c = 0
	// run spans many leaves, and it probes. s.k is s.id mod base, so a
	// row's key follows from its id; the s rows below base, one per key,
	// are never written.
	const base, rRows = 3000, 20
	check(db.CreateRelation("r", pmv.Col("id", pmv.TypeInt), pmv.Col("c", pmv.TypeInt), pmv.Col("k", pmv.TypeInt)))
	check(db.CreateRelation("s", pmv.Col("id", pmv.TypeInt), pmv.Col("c", pmv.TypeInt), pmv.Col("k", pmv.TypeInt),
		pmv.Col("pad", pmv.TypeString)))
	check(db.CreateIndex("r", "c", "k"))
	// s is read through a covering index, as a view's derived index is:
	// an uncovered side reads its heap by RID after the walk, and a row
	// deleted in between fails the query.
	_, err = db.Engine().CreateCoveringIndex("s_c_k_id", "s", []string{"c", "k"}, []string{"id"})
	check(err)
	for i := int64(0); i < rRows; i++ {
		check(db.Insert("r", pmv.Int(i), pmv.Int(0), pmv.Int(i*50)))
	}
	pad := pmv.Str(strings.Repeat("p", 40))
	for i := int64(0); i < base; i++ {
		check(db.Insert("s", pmv.Int(i), pmv.Int(0), pmv.Int(i), pad))
	}
	tpl := pmv.NewTemplate("rs").
		From("r", "s").
		Select("r.id", "r.k", "s.id", "s.k").
		Join("r.k", "s.k").
		WhereEq("r.c").
		WhereEq("s.c").
		MustBuild()
	q := pmv.NewQuery(tpl).In(0, pmv.Int(0)).In(1, pmv.Int(0)).Query()
	// Without statistics the key-only plan runs, and the relation with
	// fewer heap pages builds.
	plan, err := db.Engine().Plan(q)
	check(err)
	if kj, ok := plan.Root.(*exec.KeyJoin); !ok || kj.BuildRight || kj.Right.Index.Name != "s_c_k_id" {
		t.Fatalf("want a KeyJoin that builds r and probes s through s_c_k_id:\n%s", plan)
	}

	// A written s row has id n*base + k for a fresh n >= 1. The writes
	// take turns among themselves, as the write plane's are: a closure
	// delete's heap scan beside an insert is the heap's own reader race,
	// not the join's. The queries take no lock.
	var n atomic.Int64
	var dml sync.Mutex
	insert := func(k int64) error {
		dml.Lock()
		defer dml.Unlock()
		return db.Insert("s", pmv.Int(n.Add(1)*base+k), pmv.Int(0), pmv.Int(k), pad)
	}
	deleteSome := func(lo int64) error {
		dml.Lock()
		defer dml.Unlock()
		_, err := db.Delete("s", func(tu pmv.Tuple) bool {
			id := tu[0].Int64()
			return id >= base && id%base >= lo && id%7 == 0
		})
		return err
	}
	runs, ops := 20, 400
	if testing.Short() {
		runs, ops = 8, 150
	}
	// A writer beside the queries: inserts at joining keys, and every
	// tenth op deletes a share of the written rows.
	var wg sync.WaitGroup
	errs := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(0); i < int64(ops); i++ {
			err := insert(i * 50 % base)
			if i%10 == 9 {
				err = deleteSome(0)
			}
			if err != nil {
				errs <- err
				return
			}
		}
	}()
	for run := 0; run < runs; run++ {
		seen := map[string]bool{}
		first := true
		err := db.Execute(q, func(row pmv.Tuple) error {
			rid, rk, sid, sk := row[0].Int64(), row[1].Int64(), row[2].Int64(), row[3].Int64()
			key := fmt.Sprint(rid, ",", sid)
			switch {
			case seen[key]:
				return fmt.Errorf("row %v came out twice", row)
			case rid < 0 || rid >= rRows || rk != rid*50:
				return fmt.Errorf("row %v: no such r row", row)
			case sid < 0 || sid/base > n.Load() || sk != sid%base:
				return fmt.Errorf("row %v: no such s row", row)
			case rk != sk:
				return fmt.Errorf("row %v does not join", row)
			}
			seen[key] = true
			if first {
				first = false
				// The walk is paused after the leaf holding key rk: fill
				// that leaf past splitting at the keys around it, and
				// delete written rows further on.
				for i := int64(0); i < 100; i++ {
					if err := insert(rk + i%3); err != nil {
						return err
					}
				}
				return deleteSome(rk + 1)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		for rid := int64(0); rid < rRows; rid++ {
			if key := fmt.Sprint(rid, ",", rid*50); !seen[key] {
				t.Fatalf("run %d: untouched row pair %s missing from %d rows", run, key, len(seen))
			}
		}
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}
