package cluster_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"pmv"
	"pmv/client"
	"pmv/internal/cluster"
	"pmv/internal/server"
)

// shardFixture builds the storefront database every shard serves. All
// shards hold identical base data — the cluster partitions the hot PMV
// cache, not the relations — so any shard can run Operation O3.
func shardFixture(t testing.TB) (*pmv.DB, map[[2]int64]int) {
	return shardFixtureFS(t, nil)
}

// shardFixtureFS is shardFixture over files that go through fs (nil =
// the real OS).
func shardFixtureFS(t testing.TB, fs pmv.FS) (*pmv.DB, map[[2]int64]int) {
	t.Helper()
	db, err := pmv.Open(t.TempDir(), pmv.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	check(db.CreateRelation("product",
		pmv.Col("pid", pmv.TypeInt),
		pmv.Col("category", pmv.TypeInt),
		pmv.Col("name", pmv.TypeString)))
	check(db.CreateRelation("sale",
		pmv.Col("pid", pmv.TypeInt),
		pmv.Col("store", pmv.TypeInt),
		pmv.Col("discount", pmv.TypeInt)))
	check(db.CreateIndex("product", "pid"))
	check(db.CreateIndex("product", "category"))
	check(db.CreateIndex("sale", "pid"))
	check(db.CreateIndex("sale", "store"))
	for pid := int64(0); pid < 400; pid++ {
		check(db.Insert("product", pmv.Int(pid), pmv.Int(pid%8), pmv.Str("p")))
		check(db.Insert("sale", pmv.Int(pid), pmv.Int((pid/8)%5), pmv.Int(pid%50)))
	}
	tpl := pmv.NewTemplate("on_sale").
		From("product", "sale").
		Select("product.pid", "sale.discount").
		Join("product.pid", "sale.pid").
		WhereEq("product.category").
		WhereEq("sale.store").
		MustBuild()
	if _, err := db.CreatePartialView(tpl, pmv.ViewOptions{MaxEntries: 64, TuplesPerBCP: 8}); err != nil {
		t.Fatal(err)
	}
	want := make(map[[2]int64]int)
	for c := int64(0); c < 8; c++ {
		for st := int64(0); st < 5; st++ {
			q := pmv.NewQuery(tpl).In(0, pmv.Int(c)).In(1, pmv.Int(st)).Query()
			n := 0
			check(db.Execute(q, func(pmv.Tuple) error { n++; return nil }))
			want[[2]int64{c, st}] = n
		}
	}
	return db, want
}

// TestShardFixturePlansKeyJoin: the fixture never collects statistics,
// but CreatePartialView derives the view's composite indexes, so its
// shards run the shipping key-only plan — the plan BenchmarkRoutedQuery
// measures.
func TestShardFixturePlansKeyJoin(t *testing.T) {
	db, _ := shardFixture(t)
	v, ok := db.ViewByName("pmv_on_sale")
	if !ok {
		t.Fatal("no view pmv_on_sale")
	}
	q := pmv.NewQuery(v.Config().Template).In(0, pmv.Int(3)).In(1, pmv.Int(2)).Query()
	plan, err := db.Engine().Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.String(); !strings.HasPrefix(got, "KeyJoin ") {
		t.Fatalf("the fixture's shards plan\n%swant a KeyJoin", got)
	}
}

func shardConfig() server.Config {
	return server.Config{PoolSize: 2, DrainTimeout: 2 * time.Second}
}

// testCluster starts three loopback shards and a router over them.
func testCluster(t testing.TB) (*cluster.Router, []*server.Server, []*pmv.DB, map[[2]int64]int) {
	return testClusterFS(t, nil)
}

// testClusterFS is testCluster with every shard's files going through
// fs (nil = the real OS).
func testClusterFS(t testing.TB, fs pmv.FS) (*cluster.Router, []*server.Server, []*pmv.DB, map[[2]int64]int) {
	t.Helper()
	var (
		srvs  []*server.Server
		dbs   []*pmv.DB
		addrs []string
		want  map[[2]int64]int
	)
	for i := 0; i < 3; i++ {
		db, w := shardFixtureFS(t, fs)
		want = w
		s := server.New(db, shardConfig())
		if err := s.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Shutdown() })
		srvs = append(srvs, s)
		dbs = append(dbs, db)
		addrs = append(addrs, s.Addr().String())
	}
	r, err := cluster.NewRouter(cluster.Config{
		Shards:          addrs,
		DialTimeout:     time.Second,
		RefillTimeout:   time.Second,
		DrainTimeout:    2 * time.Second,
		DefaultDeadline: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Shutdown() })
	return r, srvs, dbs, want
}

func conds(c, st int64) []client.Cond {
	return []client.Cond{client.Eq(client.Int(c)), client.Eq(client.Int(st))}
}

// runQuery executes one routed query and enforces the streaming
// invariants: partial rows strictly precede full rows, and the total
// count is the exact multiset size (no duplicates, no losses).
func runQuery(t *testing.T, c *client.Client, cat, st int64, want int) client.Report {
	t.Helper()
	rows, partials := 0, 0
	sawFull := false
	rep, err := c.ExecutePartial(context.Background(), "pmv_on_sale", conds(cat, st), func(r client.Row) error {
		rows++
		if r.Partial {
			if sawFull {
				return fmt.Errorf("partial row after a full row")
			}
			partials++
		} else {
			sawFull = true
		}
		return nil
	})
	if err != nil {
		t.Fatalf("query (%d,%d): %v", cat, st, err)
	}
	if rows != want {
		t.Fatalf("query (%d,%d): %d rows, want %d (report %+v)", cat, st, rows, want, rep)
	}
	if rep.PartialTuples != partials {
		t.Fatalf("query (%d,%d): report says %d partials, stream delivered %d", cat, st, rep.PartialTuples, partials)
	}
	return rep
}

func TestRouterScatterGatherExactResults(t *testing.T) {
	r, _, _, want := testCluster(t)
	c := client.New(r.Addr().String())
	defer c.Close()

	// Two passes: the first runs cold (pure O3 everywhere) and seeds the
	// shard caches through refill; the second must still be exact with
	// partials in play.
	for pass := 0; pass < 2; pass++ {
		for cat := int64(0); cat < 8; cat++ {
			for st := int64(0); st < 5; st++ {
				runQuery(t, c, cat, st, want[[2]int64{cat, st}])
			}
		}
		// Refill is asynchronous; give the fan-out a moment to land
		// before the warm pass.
		time.Sleep(200 * time.Millisecond)
	}
}

func TestRouterRefillFeedsProbes(t *testing.T) {
	r, _, _, want := testCluster(t)
	c := client.New(r.Addr().String())
	defer c.Close()

	runQuery(t, c, 3, 2, want[[2]int64{3, 2}])

	// The cold query's O3 rows fan back to the owning shard; once that
	// lands, a re-query must hit and stream partials.
	deadline := time.Now().Add(5 * time.Second)
	for {
		rep := runQuery(t, c, 3, 2, want[[2]int64{3, 2}])
		if rep.Hit && rep.PartialTuples > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("refill never fed a probe hit: %+v", rep)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func TestRouterShardDownStaysExact(t *testing.T) {
	r, srvs, _, want := testCluster(t)
	c := client.New(r.Addr().String())
	defer c.Close()

	// Warm the caches, then kill one shard outright.
	for cat := int64(0); cat < 8; cat++ {
		for st := int64(0); st < 5; st++ {
			runQuery(t, c, cat, st, want[[2]int64{cat, st}])
		}
	}
	srvs[1].Shutdown()

	// Every query must still deliver the exact multiset: probes to the
	// dead shard degrade away, O3 fails over to a live shard.
	degraded := 0
	for cat := int64(0); cat < 8; cat++ {
		for st := int64(0); st < 5; st++ {
			rep := runQuery(t, c, cat, st, want[[2]int64{cat, st}])
			if rep.Degraded {
				degraded++
			}
		}
	}
	if degraded == 0 {
		t.Fatal("no query was flagged Degraded with a shard down; degradation is invisible")
	}
}

func TestRouterShardRestartReinstallsEpoch(t *testing.T) {
	r, srvs, dbs, want := testCluster(t)
	c := client.New(r.Addr().String())
	defer c.Close()

	for cat := int64(0); cat < 8; cat++ {
		for st := int64(0); st < 5; st++ {
			runQuery(t, c, cat, st, want[[2]int64{cat, st}])
		}
	}

	// Restart shard 0 on its old address: the replacement server has
	// epoch 0, so the next probe routed to it gets MsgErrEpoch and the
	// router must re-teach it the map.
	addr := srvs[0].Addr().String()
	srvs[0].Shutdown()
	replacement := server.New(dbs[0], shardConfig())
	var err error
	for i := 0; i < 100; i++ {
		if err = replacement.Start(addr); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	t.Cleanup(func() { replacement.Shutdown() })

	installsBefore := r.Metrics().Shards[0].EpochInstalls.Load()
	for cat := int64(0); cat < 8; cat++ {
		for st := int64(0); st < 5; st++ {
			runQuery(t, c, cat, st, want[[2]int64{cat, st}])
		}
	}
	if got := r.Metrics().Shards[0].EpochInstalls.Load(); got <= installsBefore {
		t.Fatalf("no epoch re-install after shard restart (installs %d -> %d)", installsBefore, got)
	}

	// And the re-taught shard serves probes again: its map answers the
	// router's epoch, not 0.
	sc := client.New(addr)
	defer sc.Close()
	sm, err := sc.ShardMap(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sm.Epoch == 0 {
		t.Fatal("restarted shard still has epoch 0 after queries; re-install never landed")
	}
}

func TestRouterShardsStatus(t *testing.T) {
	r, _, _, _ := testCluster(t)
	c := client.New(r.Addr().String())
	defer c.Close()

	rep, err := c.Shards(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Epoch != 1 || len(rep.Shards) != 3 {
		t.Fatalf("shards reply = epoch %d, %d shards; want epoch 1, 3 shards", rep.Epoch, len(rep.Shards))
	}
	for _, si := range rep.Shards {
		if !si.Up {
			t.Fatalf("shard %s reported down in a healthy cluster: %s", si.Addr, si.Error)
		}
		if len(si.Views) == 0 {
			t.Fatalf("shard %s reported no views", si.Addr)
		}
	}
}

func TestRouterAdminProxying(t *testing.T) {
	r, _, _, _ := testCluster(t)
	c := client.New(r.Addr().String())
	defer c.Close()
	ctx := context.Background()

	views, err := c.Views(ctx)
	if err != nil || len(views) != 1 || views[0].Name != "pmv_on_sale" {
		t.Fatalf("views via router = %v, %v", views, err)
	}
	if views[0].Template == nil || views[0].MaxConditionParts == 0 {
		t.Fatalf("view info lacks routing metadata: %+v", views[0])
	}
	n, err := c.Count(ctx, "product")
	if err != nil || n != 400 {
		t.Fatalf("count via router = %d, %v", n, err)
	}
	if err := c.Analyze(ctx); err != nil {
		t.Fatalf("analyze via router: %v", err)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatalf("stats via router: %v", err)
	}
	if st.Server.SessionsActive < 1 {
		t.Fatalf("router stats show no active session: %+v", st.Server)
	}
}

// BenchmarkRoutedQuery is the routed layer's number: one warm pair's
// query from a client through the router over three loopback shards —
// O1 on the router, the O2 scatter, O3 on one shard, DS and the refill
// decision — with every process in this one.
func BenchmarkRoutedQuery(b *testing.B) {
	r, _, _, want := testCluster(b)
	c := client.New(r.Addr().String())
	defer c.Close()
	n := want[[2]int64{3, 2}]
	query := func() client.Report {
		rows := 0
		rep, err := c.ExecutePartial(context.Background(), "pmv_on_sale", conds(3, 2), func(client.Row) error {
			rows++
			return nil
		})
		if err != nil || rows != n {
			b.Fatalf("%d rows, want %d: %v", rows, n, err)
		}
		return rep
	}
	for deadline := time.Now().Add(5 * time.Second); query().PartialTuples == 0; {
		if time.Now().After(deadline) {
			b.Fatal("the pair never cached")
		}
		time.Sleep(20 * time.Millisecond)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		query()
	}
}
