package cluster_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"pmv"
	"pmv/client"
	"pmv/internal/maint"
	"pmv/internal/wire"
)

// TestRouterUpdatePurgesBeforeAck pins the cluster write path with a
// write plane on every shard: one ΔR batch through the router applies
// on every shard, each shard purges its own cache before it answers,
// so routed queries are exact right after the ack and the router sends
// no invalidations.
func TestRouterUpdatePurgesBeforeAck(t *testing.T) {
	r, srvs, dbs, want := testCluster(t)
	planes := make([]*maint.Plane, len(srvs))
	for i, s := range srvs {
		p, err := maint.New(maint.Config{Source: dbs[i]})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		s.SetMaint(p)
		planes[i] = p
	}
	c := client.New(r.Addr().String())
	defer c.Close()

	// Warm every key on its owner so the purges have targets.
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
	if len(rep.Keys["pmv_on_sale"]) == 0 || rep.Wide["pmv_on_sale"] {
		t.Fatalf("primary reported no purge: %+v", rep)
	}
	for i, p := range planes {
		if st := p.Stats(); st.TuplesPurged == 0 || st.WideGenBumps != 0 {
			t.Errorf("shard %d: purged %d tuples, %d wide bumps; want >0 and 0", i, st.TuplesPurged, st.WideGenBumps)
		}
	}

	// Every routed query must reflect the delete right after the ack —
	// each combo lost exactly one pid.
	for cat := int64(0); cat < 8; cat++ {
		for st := int64(0); st < 5; st++ {
			runQuery(t, c, cat, st, want[[2]int64{cat, st}]-1)
		}
	}
	assertLocated(t, dbs)

	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Server.Updates != 1 {
		t.Fatalf("router update counter: %+v", st.Server)
	}
	if st.Maint == nil || st.Maint.FanoutSent != 0 {
		t.Fatalf("the router sent invalidations after a write: %+v", st.Maint)
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

// TestRouterAuditFailureInvalidatesServedBCPs: an owner's entry that
// holds a row execution no longer produces (here filled by hand, as a
// write that bypassed the router would leave it) fails the routed DS
// audit loudly; the retry it invites must then converge instead of
// meeting the same entry forever.
func TestRouterAuditFailureInvalidatesServedBCPs(t *testing.T) {
	r, _, dbs, want := testCluster(t)
	c := client.New(r.Addr().String())
	defer c.Close()

	// The pair's Ls′ rows with one discount from before a write, refilled
	// into every shard's empty view (so whichever owns the bcp holds it).
	v, _ := dbs[0].ViewByName("pmv_on_sale")
	disc := -1
	for i, col := range v.SelectPlus() {
		if col.Rel == "sale" && col.Col == "discount" {
			disc = i
		}
	}
	q := pmv.NewQuery(v.Config().Template).In(0, pmv.Int(3)).In(1, pmv.Int(2)).Query()
	var stale []pmv.Tuple
	if _, err := v.ExecutePlainCtx(context.Background(), q, func(t pmv.Tuple) error {
		stale = append(stale, t.Clone())
		return nil
	}); err != nil || disc < 0 || len(stale) == 0 {
		t.Fatalf("stale rows: %d rows, discount at %d, %v", len(stale), disc, err)
	}
	stale[0][disc] = pmv.Int(-1)
	for _, db := range dbs {
		v, _ := db.ViewByName("pmv_on_sale")
		if _, err := v.FillTuples(stale); err != nil {
			t.Fatal(err)
		}
	}

	_, err := c.ExecutePartial(context.Background(), "pmv_on_sale", conds(3, 2), func(client.Row) error { return nil })
	if !errors.Is(err, client.ErrRemote) || !strings.Contains(err.Error(), "consistency violation") {
		t.Fatalf("stale partial passed the routed audit: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		rows := 0
		_, err := c.ExecutePartial(context.Background(), "pmv_on_sale", conds(3, 2), func(client.Row) error {
			rows++
			return nil
		})
		if err == nil && rows == want[[2]int64{3, 2}] {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("owner kept the stale entry: %d rows, %v", rows, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
