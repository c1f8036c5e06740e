package pmv_test

import (
	"sync"
	"testing"
	"time"

	"pmv"
)

// TestConcurrentPublicAPIWithWAL drives queries, DML, and checkpoints
// concurrently through the public API with write-ahead logging on —
// the configuration a real deployment would run. Run with -race.
func TestConcurrentPublicAPIWithWAL(t *testing.T) {
	db, err := pmv.Open(t.TempDir(), pmv.Options{
		EnableWAL:       true,
		CheckpointEvery: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tpl := storefront(t, db)
	view, err := db.CreatePartialView(tpl, pmv.ViewOptions{
		MaxEntries: 40, TuplesPerBCP: 2,
	})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 32)
	// Query workers.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := int64(0); i < 40; i++ {
				q := pmv.NewQuery(tpl).
					In(0, pmv.Int((seed+i)%8)).
					In(1, pmv.Int((seed*i)%5)).
					Query()
				if _, err := view.ExecutePartial(q, func(pmv.Result) error { return nil }); err != nil {
					errCh <- err
					return
				}
			}
		}(int64(w + 1))
	}
	// DML workers.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := int64(0); i < 15; i++ {
				pid := seed*10000 + i
				if err := db.Insert("product", pmv.Int(pid), pmv.Int(pid%8), pmv.Str("new")); err != nil {
					errCh <- err
					return
				}
				if err := db.Insert("sale", pmv.Int(pid), pmv.Int(pid%5), pmv.Int(10)); err != nil {
					errCh <- err
					return
				}
				if i%5 == 4 {
					if _, err := db.Delete("sale", func(tu pmv.Tuple) bool {
						return tu[0].Int64() == seed*10000+i-2
					}); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// The view must be exactly consistent with fresh execution.
	q := pmv.NewQuery(tpl).In(0, pmv.Int(1)).In(1, pmv.Int(2)).Query()
	viaView := map[string]int{}
	if _, err := view.ExecutePartial(q, func(r pmv.Result) error {
		viaView[r.Tuple.String()]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	direct := map[string]int{}
	if err := db.Execute(q, func(tu pmv.Tuple) error {
		direct[tu.String()]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(viaView) != len(direct) {
		t.Fatalf("view path %d distinct rows, direct %d", len(viaView), len(direct))
	}
	for k, n := range direct {
		if viaView[k] != n {
			t.Errorf("row %s: view %d copies, direct %d", k, viaView[k], n)
		}
	}
}
