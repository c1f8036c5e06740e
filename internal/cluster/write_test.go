package cluster_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"pmv"
	"pmv/client"
	"pmv/internal/maint"
	"pmv/internal/wire"
)

// TestRouterUpdateFansOut pins the cluster write path: one ΔR batch
// through the router applies on every shard, the primary's affected
// keys fan back out as invalidations, and routed queries stay exact
// afterwards.
func TestRouterUpdateFansOut(t *testing.T) {
	r, srvs, dbs, want := testCluster(t)
	for i, s := range srvs {
		p, err := maint.New(maint.Config{Source: dbs[i], MaxDelay: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		s.SetMaint(p)
	}
	c := client.New(r.Addr().String())
	defer c.Close()

	// Warm every key on every shard so invalidations have targets.
	for pass := 0; pass < 2; pass++ {
		for cat := int64(0); cat < 8; cat++ {
			for st := int64(0); st < 5; st++ {
				runQuery(t, c, cat, st, want[[2]int64{cat, st}])
			}
		}
		time.Sleep(200 * time.Millisecond)
	}

	// Delete pids 0..39: exactly one pid from each of the 40
	// (category, store) keys, so the damage spans every shard's slice
	// of the key space.
	var ops []client.Op
	for pid := int64(0); pid < 40; pid++ {
		ops = append(ops, client.Delete("sale", "pid", client.Int(pid)))
	}
	rep, err := c.Update(context.Background(), true, ops...)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Applied != 40 || rep.Rows != 40 {
		t.Fatalf("applied=%d rows=%d, want 40/40", rep.Applied, rep.Rows)
	}
	if len(rep.Keys["pmv_on_sale"]) == 0 && !rep.Wide["pmv_on_sale"] {
		t.Fatalf("primary reported no damage: %+v", rep)
	}

	// Every routed query must reflect the delete immediately — each
	// combo lost exactly one pid.
	for cat := int64(0); cat < 8; cat++ {
		for st := int64(0); st < 5; st++ {
			runQuery(t, c, cat, st, want[[2]int64{cat, st}]-1)
		}
	}
	assertLocated(t, dbs)

	// The async fan-out must land: the router dispatched invalidations
	// to the non-primary shards (or degraded, but never silently).
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, serr := c.Stats(context.Background())
		if serr != nil {
			t.Fatal(serr)
		}
		if st.Server.Updates != 1 {
			t.Fatalf("router update counter: %+v", st.Server)
		}
		if st.Maint != nil && st.Maint.FanoutSent > 0 && st.Maint.FanoutFailures == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fan-out never dispatched: %+v", st.Maint)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// assertLocated fails unless every shard found the rows of every
// DELETE/UPDATE it ran through an index: sale.pid is indexed, so a
// routed point statement must not scan a shard's heap.
func assertLocated(t *testing.T, dbs []*pmv.DB) {
	t.Helper()
	for i, db := range dbs {
		if es := db.EngineStats(); es.DMLLocated == 0 || es.DMLScanned != 0 {
			t.Errorf("shard %d located %d statements and scanned for %d, want >0 and 0", i, es.DMLLocated, es.DMLScanned)
		}
	}
}

// TestRouterUpdateLocatesRows pins the routed write path without write
// planes — every shard applies every statement directly — on what it
// costs and what it promises: no shard scans its heap for a point
// update on an indexed column, and a query through the router sees the
// write on whichever shard owns its key.
func TestRouterUpdateLocatesRows(t *testing.T) {
	r, _, dbs, want := testCluster(t)
	c := client.New(r.Addr().String())
	defer c.Close()

	// Warm every key, so the writes below have cached entries to purge.
	for cat := int64(0); cat < 8; cat++ {
		for st := int64(0); st < 5; st++ {
			runQuery(t, c, cat, st, want[[2]int64{cat, st}])
		}
	}
	time.Sleep(200 * time.Millisecond)

	// pids 0..39 hold one pid of each of the 40 (category, store) keys,
	// so the damage spans every shard's slice of the key space.
	var ops []client.Op
	for pid := int64(0); pid < 40; pid++ {
		ops = append(ops, client.Set("sale", "pid", client.Int(pid), "discount", client.Int(1000+pid)))
	}
	rep, err := c.Update(context.Background(), true, ops...)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Applied != 40 || rep.Rows != 40 {
		t.Fatalf("applied=%d rows=%d, want 40/40", rep.Applied, rep.Rows)
	}
	assertLocated(t, dbs)

	for pid := int64(0); pid < 40; pid++ {
		cat, st := pid%8, (pid/8)%5
		seen := false
		_, err := c.ExecutePartial(context.Background(), "pmv_on_sale", conds(cat, st), func(r client.Row) error {
			if r.Tuple[0].Int64() == pid {
				seen = true
				if d := r.Tuple[1].Int64(); d != 1000+pid {
					return fmt.Errorf("pid %d served with discount %d, want %d", pid, d, 1000+pid)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("query (%d,%d): %v", cat, st, err)
		}
		if !seen {
			t.Fatalf("query (%d,%d) lost pid %d", cat, st, pid)
		}
	}
}

// TestRouterUpdateShardDownFailsLoudly pins the no-failover contract:
// with one shard gone, the writer gets a typed error and nothing is
// silently dropped.
func TestRouterUpdateShardDownFailsLoudly(t *testing.T) {
	r, srvs, _, _ := testCluster(t)
	c := client.New(r.Addr().String())
	defer c.Close()

	srvs[2].Shutdown()
	_, err := c.Update(context.Background(), true,
		client.Delete("sale", "pid", client.Int(5)))
	if err == nil {
		t.Fatal("update acked with a shard down")
	}
	if !strings.Contains(err.Error(), "update failed on shard") {
		t.Fatalf("wrong error shape: %v", err)
	}

	st, serr := c.Stats(context.Background())
	if serr != nil {
		t.Fatal(serr)
	}
	if st.Server.Updates != 0 {
		t.Fatalf("failed update still acked in stats: %+v", st.Server)
	}

	// The router itself refuses direct invalidate frames — those are
	// shard requests.
	if _, err := c.Invalidate(context.Background(), wire.InvalidateRequest{
		View: "pmv_on_sale", All: true,
	}); err == nil || !strings.Contains(err.Error(), "shard request") {
		t.Fatalf("router accepted an invalidate: %v", err)
	}
}
