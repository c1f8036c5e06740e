package cluster_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	"pmv/client"
	"pmv/internal/cluster"
	"pmv/internal/netfault"
	"pmv/internal/server"
)

// tailCluster starts three loopback shards with shard 0 behind a
// netfault proxy, and a router (tail tolerance on, knobs via mut) that
// knows shard 0 only by its proxy address.
func tailCluster(t *testing.T, inj *netfault.Injector, mut func(*cluster.Config)) (*cluster.Router, []*server.Server, map[[2]int64]int) {
	t.Helper()
	var (
		srvs  []*server.Server
		addrs []string
		want  map[[2]int64]int
	)
	for i := 0; i < 3; i++ {
		db, w := shardFixture(t)
		want = w
		s := server.New(db, shardConfig())
		if err := s.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Shutdown() })
		srvs = append(srvs, s)
		addrs = append(addrs, s.Addr().String())
	}
	proxy, err := netfault.NewProxy("127.0.0.1:0", addrs[0], inj)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })
	addrs[0] = proxy.Addr().String()

	cfg := cluster.Config{
		Shards:          addrs,
		DialTimeout:     time.Second,
		RefillTimeout:   time.Second,
		DrainTimeout:    2 * time.Second,
		DefaultDeadline: 10 * time.Second,
		TailTolerance:   true,
		// Keep heartbeats out of the way unless a test wants them.
		HeartbeatInterval: time.Hour,
	}
	if mut != nil {
		mut(&cfg)
	}
	r, err := cluster.NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Shutdown() })
	return r, srvs, want
}

// ownedByShard0 finds a condition pair whose bcp key shard 0 owns, by
// watching the per-shard probe counter.
func ownedByShard0(t *testing.T, r *cluster.Router, c *client.Client, want map[[2]int64]int) (int64, int64) {
	t.Helper()
	for cat := int64(0); cat < 8; cat++ {
		for st := int64(0); st < 5; st++ {
			before := r.Metrics().Shards[0].Probes.Load()
			runQuery(t, c, cat, st, want[[2]int64{cat, st}])
			if r.Metrics().Shards[0].Probes.Load() > before {
				return cat, st
			}
		}
	}
	t.Fatal("no condition pair probed shard 0")
	return 0, 0
}

// TestHedgeRescuesStuckConnection pins the hedge race end to end: a
// probe whose connection is blackholed mid-flight is rescued by a
// hedge over a fresh session, the query stays exact (the arbiter
// suppresses whatever the stuck arm would double-deliver), and the
// canceled arm's connection is released promptly.
func TestHedgeRescuesStuckConnection(t *testing.T) {
	inj := netfault.NewInjector(1)
	r, _, want := tailCluster(t, inj, func(cfg *cluster.Config) {
		cfg.Hedge = true
		cfg.HedgeMaxDelay = 20 * time.Millisecond
		cfg.DefaultDeadline = 5 * time.Second
	})
	c := client.New(r.Addr().String())
	defer c.Close()

	cat, st := ownedByShard0(t, r, c, want)
	// Warm every pair so probes carry cached partials (the duplication
	// surface hedging must keep safe).
	for cc := int64(0); cc < 8; cc++ {
		for ss := int64(0); ss < 5; ss++ {
			runQuery(t, c, cc, ss, want[[2]int64{cc, ss}])
		}
	}
	time.Sleep(300 * time.Millisecond) // let refill land

	// Blackhole the next flow through the proxy: the probe's request
	// vanishes and its session hangs. The hedge must win the race.
	inj.Add(netfault.Rule{Kind: netfault.FaultBlackhole, Op: netfault.OpRead, AfterOps: 1})
	sm := r.Metrics().Shards[0]
	hedgesBefore, winsBefore := sm.HedgesSent.Load(), sm.HedgeWins.Load()
	rep := runQuery(t, c, cat, st, want[[2]int64{cat, st}])
	if rep.Degraded {
		t.Fatalf("hedged query degraded: %+v", rep)
	}
	if sm.HedgesSent.Load() <= hedgesBefore {
		t.Fatal("no hedge launched against the stuck probe")
	}
	if sm.HedgeWins.Load() <= winsBefore {
		t.Fatal("hedge launched but never won the race")
	}

	// Dup oracle: with hedging live, every pair must still deliver the
	// exact multiset — any arbiter leak would double a partial row or
	// trip the router's DS-leftover audit into a typed failure.
	for pass := 0; pass < 2; pass++ {
		for cc := int64(0); cc < 8; cc++ {
			for ss := int64(0); ss < 5; ss++ {
				runQuery(t, c, cc, ss, want[[2]int64{cc, ss}])
			}
		}
	}
	if r.Metrics().DSLeftover.Load() != 0 {
		t.Fatal("hedging produced DS leftovers: duplicate suppression broke the audit")
	}
}

// TestBreakerSkipsGrayShard drives the latency trip: one shard 20x
// slower than the fleet (alive, answering — the gray-failure shape)
// must be skipped-and-flagged within a few heartbeats, so queries stop
// paying its latency while staying exact via O3 on a healthy shard.
func TestBreakerSkipsGrayShard(t *testing.T) {
	inj := netfault.NewInjector(2)
	r, _, want := tailCluster(t, inj, func(cfg *cluster.Config) {
		cfg.HeartbeatInterval = 20 * time.Millisecond
		cfg.BreakerCooldown = 30 * time.Second // no recovery during the test
	})
	c := client.New(r.Addr().String())
	defer c.Close()

	cat, st := ownedByShard0(t, r, c, want)
	// Gray out shard 0: every op through its proxy now costs 60ms.
	inj.SetShape(netfault.Shape{Latency: 60 * time.Millisecond})

	// Heartbeats feed the latency digest without query traffic; wait
	// for the breaker to trip on the relative latency test.
	deadline := time.Now().Add(10 * time.Second)
	for r.Metrics().Shards[0].BreakerTrips.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("gray shard never tripped its breaker")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Queries owned by the gray shard now skip it: flagged degraded,
	// exact via O3, and far under the gray shard's latency floor.
	start := time.Now()
	rep := runQuery(t, c, cat, st, want[[2]int64{cat, st}])
	elapsed := time.Since(start)
	if !rep.Degraded {
		t.Fatalf("breaker-skipped query not flagged Degraded: %+v", rep)
	}
	if r.Metrics().Shards[0].BreakerSkips.Load() == 0 {
		t.Fatal("breaker open but no probe was skipped")
	}
	// The probe fan-out no longer waits on the gray shard. 60ms of
	// injected latency per op means even one round trip through the
	// proxy would blow this bound.
	if elapsed > 50*time.Millisecond {
		t.Fatalf("breaker-skipped query took %v; still waiting on the gray shard", elapsed)
	}
}

// TestFlappingShardReteachAndRecovery runs the worst case for the
// breaker state machine: a shard that flaps between healthy and gray
// while a shard-map install resets breakers mid-flap — the half-open
// trial can race the epoch re-teach. Queries must stay exact through
// all of it and the new epoch must land.
func TestFlappingShardReteachAndRecovery(t *testing.T) {
	inj := netfault.NewInjector(3)
	r, _, want := tailCluster(t, inj, func(cfg *cluster.Config) {
		cfg.HeartbeatInterval = 15 * time.Millisecond
		cfg.BreakerCooldown = 30 * time.Millisecond
		cfg.BreakerMaxCooldown = 60 * time.Millisecond
	})
	c := client.New(r.Addr().String())
	defer c.Close()

	for cc := int64(0); cc < 8; cc++ {
		for ss := int64(0); ss < 5; ss++ {
			runQuery(t, c, cc, ss, want[[2]int64{cc, ss}])
		}
	}

	// Flap shard 0: 150ms gray at 60ms/op, 150ms clean, repeating.
	inj.SetShape(netfault.Shape{
		Latency: 60 * time.Millisecond,
		FlapUp:  150 * time.Millisecond, FlapDown: 150 * time.Millisecond,
	})

	stop := time.Now().Add(1200 * time.Millisecond)
	installed := false
	for time.Now().Before(stop) {
		for cc := int64(0); cc < 8; cc++ {
			runQuery(t, c, cc, 2, want[[2]int64{cc, 2}])
		}
		if !installed && r.Metrics().Shards[0].BreakerTrips.Load() > 0 {
			// Mid-flap, re-teach the cluster a bumped epoch: this resets
			// every breaker while trials may be in flight.
			m, err := c.ShardMap(context.Background())
			if err != nil {
				t.Fatalf("read shard map: %v", err)
			}
			m.Epoch++
			if err := c.InstallShardMap(context.Background(), m); err != nil {
				t.Fatalf("install: %v", err)
			}
			installed = true
		}
	}
	if !installed {
		t.Fatal("flapping shard never tripped its breaker")
	}

	// Heal the link; the breaker must re-admit the shard (trial via
	// heartbeat) and serve exact probe traffic under the new epoch.
	inj.SetShape(netfault.Shape{})
	inj.Clear()
	deadline := time.Now().Add(5 * time.Second)
	for {
		rep := runQuery(t, c, 3, 2, want[[2]int64{3, 2}])
		if !rep.Degraded {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("shard never re-admitted after the flap healed")
		}
		time.Sleep(30 * time.Millisecond)
	}
	if r.Metrics().DSLeftover.Load() != 0 {
		t.Fatal("flap chaos produced DS leftovers")
	}
}

// TestDeadlineReleasesBlackholedProbe pins the probe-abandonment fix
// at the router layer: probes against a blackholed shard must release
// their goroutines and connections when the query deadline fires, not
// linger until a transport timeout.
func TestDeadlineReleasesBlackholedProbe(t *testing.T) {
	inj := netfault.NewInjector(4)
	r, _, want := tailCluster(t, inj, func(cfg *cluster.Config) {
		cfg.DefaultDeadline = 400 * time.Millisecond
	})
	c := client.New(r.Addr().String())
	defer c.Close()

	cat, st := ownedByShard0(t, r, c, want)
	for cc := int64(0); cc < 8; cc++ {
		for ss := int64(0); ss < 5; ss++ {
			runQuery(t, c, cc, ss, want[[2]int64{cc, ss}])
		}
	}
	time.Sleep(200 * time.Millisecond)
	baseline := runtime.NumGoroutine()

	// Silence shard 0 completely: every op blackholes its flow.
	inj.Add(netfault.Rule{Kind: netfault.FaultBlackhole, Op: netfault.OpAny, Prob: 1, Sticky: true})

	for i := 0; i < 4; i++ {
		start := time.Now()
		// The query may degrade (partials lost) or fail typed (O3 round
		// robin landing on the dead shard) — either is contractual; what
		// must not happen is hanging past the deadline.
		c.ExecutePartial(context.Background(), "pmv_on_sale", conds(cat, st), func(client.Row) error { return nil })
		if d := time.Since(start); d > 3*time.Second {
			t.Fatalf("query %d took %v against a blackholed shard; probes not abandoned at deadline", i, d)
		}
	}

	// Abandoned probes must not pile up goroutines.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if g := runtime.NumGoroutine(); g <= baseline+5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines grew %d -> %d after abandoned probes", baseline, runtime.NumGoroutine())
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestRouterAnswersPing checks the router-side heartbeat endpoint:
// MsgPing answers the map epoch, so routers are health-checkable the
// same way shards are.
func TestRouterAnswersPing(t *testing.T) {
	r, _, _ := tailCluster(t, netfault.NewInjector(5), nil)
	c := client.New(r.Addr().String())
	defer c.Close()
	rtt, epoch, err := c.Ping(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 {
		t.Fatalf("router pong epoch = %d, want 1", epoch)
	}
	if rtt <= 0 {
		t.Fatal("rtt not measured")
	}
}
