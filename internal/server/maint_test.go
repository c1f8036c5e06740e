package server

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"pmv/client"
	"pmv/internal/maint"
	"pmv/internal/wire"
)

// queryPids runs one (category, store) query over the wire and returns
// the delivered pid set.
func queryPids(t *testing.T, c *client.Client, cat, store int64) map[int64]bool {
	t.Helper()
	pids := make(map[int64]bool)
	_, err := c.ExecutePartial(context.Background(), "pmv_on_sale", conds(cat, store), func(r client.Row) error {
		pids[r.Tuple[0].Int64()] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pids
}

// TestUpdateOverWire pins the batched write path end to end over a
// loopback connection: apply, maintenance, affected-key reporting, and
// post-update query correctness.
func TestUpdateOverWire(t *testing.T) {
	s, db, _ := testServer(t, Config{})
	p, err := maint.New(maint.Config{Source: db, MaxDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	s.SetMaint(p)

	c := client.New(s.Addr().String())
	defer c.Close()

	before := queryPids(t, c, 3, 3) // warm the cache
	if !before[27] {
		t.Fatal("fixture broken: pid 27 not in (3,3) result")
	}
	rep, err := c.Update(context.Background(), true,
		client.Delete("sale", "pid", client.Int(27)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Applied != 1 || rep.Rows != 1 {
		t.Fatalf("applied=%d rows=%d, want 1/1", rep.Applied, rep.Rows)
	}
	if len(rep.Keys["pmv_on_sale"]) == 0 {
		t.Fatalf("no affected keys in reply: %+v", rep)
	}
	if rep.Wide["pmv_on_sale"] {
		t.Fatal("single delete reported wide damage")
	}
	after := queryPids(t, c, 3, 3)
	if after[27] {
		t.Fatal("deleted pid 27 still served over the wire")
	}
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Server.Updates != 1 || st.Server.UpdateRows != 1 {
		t.Fatalf("server write counters: %+v", st.Server)
	}
	if st.Maint == nil || st.Maint.OpsApplied != 1 {
		t.Fatalf("maint stats missing or wrong: %+v", st.Maint)
	}
}

// TestUpdatePerStatementFallback pins the no-plane path: ops apply
// directly with synchronous per-statement maintenance, the stats reply
// carries no maint block, and a point statement on an indexed column
// finds its rows through the index, not by scanning the heap.
func TestUpdatePerStatementFallback(t *testing.T) {
	s, _, _ := testServer(t, Config{})
	c := client.New(s.Addr().String())
	defer c.Close()

	before := queryPids(t, c, 3, 3)
	if !before[27] {
		t.Fatal("fixture broken: pid 27 not in (3,3) result")
	}
	rep, err := c.Update(context.Background(), false,
		client.Delete("sale", "pid", client.Int(27)),
		client.Set("sale", "pid", client.Int(91), "discount", client.Int(7)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Applied != 2 {
		t.Fatalf("applied=%d, want 2", rep.Applied)
	}
	if after := queryPids(t, c, 3, 3); after[27] {
		t.Fatal("deleted pid 27 still served")
	}
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Maint != nil {
		t.Fatal("per-statement server reported maint stats")
	}
	if st.Server.Updates != 1 || st.Server.UpdateOps != 2 {
		t.Fatalf("server write counters: %+v", st.Server)
	}
	if st.Engine.DMLLocated != 2 || st.Engine.DMLScanned != 0 {
		t.Fatalf("engine located %d statements and scanned for %d, want 2 and 0: sale.pid is indexed",
			st.Engine.DMLLocated, st.Engine.DMLScanned)
	}
}

// TestInvalidateOverWire pins the fan-in handler: per-key bumps for a
// warmed view, wide bumps with All, and the epoch guard.
func TestInvalidateOverWire(t *testing.T) {
	s, db, _ := testServer(t, Config{})
	c := client.New(s.Addr().String())
	defer c.Close()

	queryPids(t, c, 3, 3) // warm some entries
	v := db.Views()[0]
	if v.Len() == 0 {
		t.Fatal("no entries cached after warming query")
	}

	// Collect a live key through the snapshot iterator.
	var key string
	if err := v.SnapshotEntries(func(k string, _ int64, _ []client.Tuple) error {
		key = k
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Invalidate(context.Background(), wire.InvalidateRequest{
		View: "pmv_on_sale", Keys: []string{key},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Keys != 1 {
		t.Fatalf("bumped %d keys, want 1", rep.Keys)
	}
	if rep2, err := c.Invalidate(context.Background(), wire.InvalidateRequest{
		View: "pmv_on_sale", All: true,
	}); err != nil || !rep2.Wide {
		t.Fatalf("wide invalidate: rep=%+v err=%v", rep2, err)
	}
	if vs := v.Stats(); vs.KeyGenBumps == 0 || vs.ViewGenBumps == 0 {
		t.Fatalf("generation counters: %+v", vs)
	}
	// Queries still answer correctly after losing the whole cache.
	queryPids(t, c, 3, 3)

	// A nonzero epoch against a shard with no installed map is refused
	// with the typed epoch error.
	_, err = c.Invalidate(context.Background(), wire.InvalidateRequest{
		View: "pmv_on_sale", All: true, Epoch: 99,
	})
	if !errors.Is(err, wire.ErrEpoch) {
		t.Fatalf("stale epoch: got %v, want ErrEpoch", err)
	}

	if _, err := c.Invalidate(context.Background(), wire.InvalidateRequest{View: "nope", All: true}); err == nil ||
		!strings.Contains(err.Error(), "no view") {
		t.Fatalf("unknown view: got %v", err)
	}
}
