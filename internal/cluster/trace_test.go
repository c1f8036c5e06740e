package cluster_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"pmv/client"
	"pmv/internal/obs"
	"pmv/internal/wire"
)

// spanKinds collects the kinds present in an assembled trace, split by
// whether the span was recorded by the router itself or reported by a
// shard.
func spanKinds(spans []wire.TraceSpan) (local, sourced map[string]int) {
	local, sourced = map[string]int{}, map[string]int{}
	for _, sp := range spans {
		if sp.Source == "" {
			local[sp.Kind]++
		} else {
			sourced[sp.Kind]++
		}
	}
	return local, sourced
}

// TestRouterTraceAssemblesClusterTimeline is the tentpole's end-to-end
// check: with router tracing on, one routed query yields one assembled
// trace covering the router's O1 and serve spans plus the per-shard
// span reports (probe, exec, and — asynchronously — refill), and the
// per-shard reports reconcile against the cluster's real topology.
func TestRouterTraceAssemblesClusterTimeline(t *testing.T) {
	r, srvs, _, want := testCluster(t)
	c := client.New(r.Addr().String())
	defer c.Close()
	ctx := context.Background()

	shardAddrs := map[string]bool{}
	for _, s := range srvs {
		shardAddrs[s.Addr().String()] = true
	}

	on := true
	tp, err := c.Trace(ctx, wire.TraceRequest{Trace: &on})
	if err != nil || !tp.Trace {
		t.Fatalf("enabling router tracing: %+v, %v", tp, err)
	}

	// Cold query: pure O3 plus a refill fan-back.
	runQuery(t, c, 3, 2, want[[2]int64{3, 2}])
	tg, err := c.TraceGet(ctx, 0)
	if err != nil || len(tg.Recent) == 0 {
		t.Fatalf("no retained traces after a traced query: %+v, %v", tg, err)
	}
	coldID := tg.Recent[0]

	// Warm query: poll until refill feeds a probe hit, then inspect the
	// hitting query's trace.
	deadline := time.Now().Add(5 * time.Second)
	var rep client.Report
	for {
		rep = runQuery(t, c, 3, 2, want[[2]int64{3, 2}])
		if rep.Hit && rep.PartialTuples > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("refill never fed a probe hit: %+v", rep)
		}
		time.Sleep(50 * time.Millisecond)
	}

	tg, err = c.TraceGet(ctx, 0)
	if err != nil || len(tg.Recent) == 0 {
		t.Fatalf("recent traces: %+v, %v", tg, err)
	}
	hot, err := c.TraceGet(ctx, tg.Recent[0])
	if err != nil || !hot.Found {
		t.Fatalf("trace %d not found: %v", tg.Recent[0], err)
	}
	at := hot.Trace
	if at.View != "pmv_on_sale" {
		t.Fatalf("trace view = %q", at.View)
	}
	local, sourced := spanKinds(at.Spans)
	if local["o1"] == 0 || local["serve"] == 0 {
		t.Fatalf("router-local o1/serve spans missing: local=%v sourced=%v", local, sourced)
	}
	if sourced["o2_probe"] == 0 {
		t.Fatalf("no shard-reported o2_probe span on a hitting query: sourced=%v", sourced)
	}
	if sourced["serve"] == 0 {
		t.Fatalf("no shard-reported serve span: sourced=%v", sourced)
	}
	// Reconcile shard reports against the topology: every sourced span
	// must name a real shard.
	for _, sp := range at.Spans {
		if sp.Source != "" && !shardAddrs[strings.TrimSuffix(sp.Source, " (lost)")] {
			t.Fatalf("span sourced from unknown peer %q", sp.Source)
		}
	}
	// The router's serve span bills at least the rows the client got.
	if at.CostRows < int64(rep.TotalTuples) || at.CostBytes <= 0 {
		t.Fatalf("trace cost bill too small: rows=%d bytes=%d want rows>=%d",
			at.CostRows, at.CostBytes, rep.TotalTuples)
	}

	// The cold query's refill fan-back lands after its reply; the stored
	// trace is live, so the refill spans appear on a later read.
	deadline = time.Now().Add(5 * time.Second)
	for {
		cold, err := c.TraceGet(ctx, coldID)
		if err != nil || !cold.Found {
			t.Fatalf("cold trace %d lost: %v", coldID, err)
		}
		_, csourced := spanKinds(cold.Trace.Spans)
		if csourced["refill"] > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no shard-reported refill span ever appeared: %v", csourced)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestRouterExternalTraceFansBack drives the wire trace context end to
// end: a client-owned trace rides the query to the router, the router's
// assembled timeline fans back as a span report, and the router retains
// the trace under the caller's id.
func TestRouterExternalTraceFansBack(t *testing.T) {
	r, _, _, want := testCluster(t)
	c := client.New(r.Addr().String())
	defer c.Close()
	ctx := context.Background()

	tr := obs.New(42, "pmv_on_sale")
	rows := 0
	_, err := c.ExecutePartial(obs.WithTrace(ctx, tr), "pmv_on_sale", conds(1, 1),
		func(client.Row) error { rows++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if rows != want[[2]int64{1, 1}] {
		t.Fatalf("traced query returned %d rows, want %d", rows, want[[2]int64{1, 1}])
	}

	// Every fanned-back span carries the router's address (the wire span
	// report does not forward per-shard sources); the router's own serve
	// span is the one billing the full row count.
	var serve, o1 bool
	for _, sp := range tr.AllSpans() {
		if sp.Source != r.Addr().String() {
			continue
		}
		switch sp.Kind {
		case obs.KindServe:
			if sp.Rows == int64(rows) {
				serve = true
			}
		case obs.KindO1:
			o1 = true
		}
	}
	if !serve || !o1 {
		t.Fatalf("router span report incomplete (serve=%v o1=%v): %v", serve, o1, tr.AllSpans())
	}

	// The router retained the trace under the caller's id, so the
	// operator can pull the same timeline later.
	tg, err := c.TraceGet(ctx, 42)
	if err != nil || !tg.Found || tg.Trace.ID != 42 {
		t.Fatalf("router did not retain external trace 42: %+v, %v", tg, err)
	}
}

// TestRouterDegradedRecordedRegardless pins the slow-ring blind-spot
// fix: with tracing AND the slow threshold off, a query that silently
// loses a shard's partials is still recorded, with a reason.
func TestRouterDegradedRecordedRegardless(t *testing.T) {
	r, srvs, _, want := testCluster(t)
	c := client.New(r.Addr().String())
	defer c.Close()
	ctx := context.Background()

	// Warm every cache so probes have something to lose, then kill one
	// shard.
	for cat := int64(0); cat < 8; cat++ {
		for st := int64(0); st < 5; st++ {
			runQuery(t, c, cat, st, want[[2]int64{cat, st}])
		}
	}
	time.Sleep(200 * time.Millisecond)
	srvs[1].Shutdown()

	degraded := 0
	for cat := int64(0); cat < 8; cat++ {
		for st := int64(0); st < 5; st++ {
			if runQuery(t, c, cat, st, want[[2]int64{cat, st}]).Degraded {
				degraded++
			}
		}
	}
	if degraded == 0 {
		t.Fatal("no query degraded with a shard down; nothing to record")
	}

	sl, err := c.Slowlog(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sl.ThresholdNs != -1 {
		t.Fatalf("slow threshold = %d, want disabled (-1)", sl.ThresholdNs)
	}
	recorded := 0
	for _, q := range sl.Queries {
		if q.Reason == "" || q.Reason == "slow" {
			t.Fatalf("degraded record carries no degradation reason: %+v", q)
		}
		if !strings.Contains(q.Reason, "degraded") {
			t.Fatalf("unexpected reason %q", q.Reason)
		}
		recorded++
	}
	if recorded == 0 {
		t.Fatal("degraded queries were never recorded in the slow ring (the blind spot)")
	}
	if r.Metrics().DegradedRecorded.Load() == 0 {
		t.Fatal("DegradedRecorded counter never moved")
	}
}

// TestRouterFleetFederation checks the federated fleet view against a
// healthy cluster and again with a shard down.
func TestRouterFleetFederation(t *testing.T) {
	r, srvs, _, want := testCluster(t)
	c := client.New(r.Addr().String())
	defer c.Close()
	ctx := context.Background()

	runQuery(t, c, 2, 3, want[[2]int64{2, 3}])

	// Router.Start installs the shard map in the background, so a shard
	// the query did not reach may still be stale: wait for the install.
	var fl wire.FleetReply
	var err error
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if fl, err = c.Fleet(ctx); err != nil {
			t.Fatal(err)
		}
		if fl.ShardsStale == 0 || time.Now().After(deadline) {
			break
		}
	}
	if fl.Epoch != 1 || len(fl.Shards) != 3 {
		t.Fatalf("fleet = epoch %d, %d shards", fl.Epoch, len(fl.Shards))
	}
	if fl.ShardsUp != 3 || fl.ShardsDown != 0 || fl.ShardsStale != 0 {
		t.Fatalf("healthy fleet reported up=%d down=%d stale=%d", fl.ShardsUp, fl.ShardsDown, fl.ShardsStale)
	}
	if fl.Router.Queries == 0 {
		t.Fatalf("router counters missing from fleet view: %+v", fl.Router)
	}
	for _, fs := range fl.Shards {
		if !fs.Up || fs.Stats == nil {
			t.Fatalf("healthy shard %s reported up=%v stats=%v (%s)", fs.Addr, fs.Up, fs.Stats != nil, fs.Error)
		}
		if fs.Epoch != fl.Epoch {
			t.Fatalf("shard %s epoch %d != fleet epoch %d", fs.Addr, fs.Epoch, fl.Epoch)
		}
	}
	if fl.MaintBacklog < 0 {
		t.Fatalf("negative maint backlog %d", fl.MaintBacklog)
	}

	srvs[2].Shutdown()
	fl, err = c.Fleet(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if fl.ShardsUp != 2 || fl.ShardsDown != 1 {
		t.Fatalf("fleet with a dead shard reported up=%d down=%d", fl.ShardsUp, fl.ShardsDown)
	}
	var sawDown bool
	for _, fs := range fl.Shards {
		if !fs.Up {
			sawDown = true
			if fs.Error == "" {
				t.Fatalf("down shard %s carries no error", fs.Addr)
			}
		}
	}
	if !sawDown {
		t.Fatal("no shard marked down")
	}
}
