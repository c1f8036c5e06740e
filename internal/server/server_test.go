package server

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"pmv"
	"pmv/client"
	"pmv/internal/wire"
)

// testServer builds a storefront database with one view, starts a
// loopback server over it, and returns the server plus the expected
// full result count for every (category, store) query pair.
func testServer(t testing.TB, cfg Config) (*Server, *pmv.DB, map[[2]int64]int) {
	t.Helper()
	db, err := pmv.Open(t.TempDir(), pmv.Options{})
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
	if _, err := db.CreatePartialView(tpl, pmv.ViewOptions{MaxEntries: 64, TuplesPerBCP: 4}); err != nil {
		t.Fatal(err)
	}

	// Ground truth per query pair, computed through plain execution.
	want := make(map[[2]int64]int)
	for c := int64(0); c < 8; c++ {
		for st := int64(0); st < 5; st++ {
			q := pmv.NewQuery(tpl).In(0, pmv.Int(c)).In(1, pmv.Int(st)).Query()
			n := 0
			check(db.Execute(q, func(pmv.Tuple) error { n++; return nil }))
			want[[2]int64{c, st}] = n
		}
	}

	s := New(db, cfg)
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Shutdown() })
	return s, db, want
}

func conds(c, st int64) []client.Cond {
	return []client.Cond{client.Eq(client.Int(c)), client.Eq(client.Int(st))}
}

// TestLoopbackConcurrentSessions drives 64 concurrent client sessions
// through the full protocol — queries interleaved with admin commands —
// and checks every non-shed answer against ground truth. Run with
// -race; the session goroutines, admission semaphore, and metrics all
// get exercised at once.
func TestLoopbackConcurrentSessions(t *testing.T) {
	s, _, want := testServer(t, Config{PoolSize: 4})
	addr := s.Addr().String()

	const sessions = 64
	const queriesPerSession = 6
	var wg sync.WaitGroup
	errCh := make(chan error, sessions)
	for w := 0; w < sessions; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			c := client.New(addr)
			defer c.Close()
			ctx := context.Background()
			for i := int64(0); i < queriesPerSession; i++ {
				cat, st := (seed+i)%8, (seed*i)%5
				rows, partials := 0, 0
				sawFull := false
				rep, err := c.ExecutePartial(ctx, "pmv_on_sale", conds(cat, st), func(r client.Row) error {
					rows++
					if r.Partial {
						if sawFull {
							return fmt.Errorf("partial row after a full row: ordering broken")
						}
						partials++
					} else {
						sawFull = true
					}
					return nil
				})
				if err != nil {
					errCh <- fmt.Errorf("session %d query %d: %w", seed, i, err)
					return
				}
				if rep.TotalTuples != rows {
					errCh <- fmt.Errorf("report says %d tuples, stream had %d", rep.TotalTuples, rows)
					return
				}
				if rep.PartialTuples != partials {
					errCh <- fmt.Errorf("report says %d partials, stream had %d", rep.PartialTuples, partials)
					return
				}
				if rep.Shed {
					if !rep.PartialOnly {
						errCh <- fmt.Errorf("shed query not flagged PartialOnly")
						return
					}
				} else if !rep.Degraded && rows != want[[2]int64{cat, st}] {
					errCh <- fmt.Errorf("query (%d,%d): %d rows, want %d", cat, st, rows, want[[2]int64{cat, st}])
					return
				}
				// Interleave an admin request on the same session.
				if i%3 == 2 {
					if _, err := c.Count(ctx, "product"); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	m := s.Metrics()
	if got := m.SessionsTotal.Load(); got < sessions {
		t.Errorf("SessionsTotal = %d, want >= %d", got, sessions)
	}
	if got := m.Queries.Load(); got != sessions*queriesPerSession {
		t.Errorf("Queries = %d, want %d", got, sessions*queriesPerSession)
	}
	if m.Total.Snapshot().Count != sessions*queriesPerSession {
		t.Error("total latency histogram missed queries")
	}

	// Graceful shutdown: all sessions are idle, so this must return
	// well within the drain timeout and leave no goroutines behind.
	start := time.Now()
	if err := s.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Errorf("shutdown took %v with idle sessions", d)
	}
	if got := m.SessionsActive.Load(); got != 0 {
		t.Errorf("SessionsActive = %d after shutdown", got)
	}
}

// TestAdmissionControlSheds saturates every worker slot, then proves
// an arriving query is answered immediately from the view (flagged
// Shed+PartialOnly, every row Partial) instead of queueing behind the
// pool.
func TestAdmissionControlSheds(t *testing.T) {
	s, _, _ := testServer(t, Config{PoolSize: 2})
	addr := s.Addr().String()
	ctx := context.Background()

	c := client.New(addr)
	defer c.Close()
	// Warm the view so the shed answer has cached rows to return.
	if _, err := c.ExecutePartial(ctx, "pmv_on_sale", conds(1, 2), nil); err != nil {
		t.Fatal(err)
	}

	// Occupy every admission slot, as long-running O3s would.
	for i := 0; i < cap(s.sem); i++ {
		s.sem <- struct{}{}
	}
	drained := false
	drain := func() {
		if drained {
			return
		}
		drained = true
		for i := 0; i < cap(s.sem); i++ {
			<-s.sem
		}
	}
	defer drain()

	rows, nonPartial := 0, 0
	start := time.Now()
	rep, err := c.ExecutePartial(ctx, "pmv_on_sale", conds(1, 2), func(r client.Row) error {
		rows++
		if !r.Partial {
			nonPartial++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Shed || !rep.PartialOnly {
		t.Fatalf("saturated query not shed: %+v", rep)
	}
	if rows == 0 {
		t.Fatal("shed answer returned no cached rows from a warm view")
	}
	if nonPartial != 0 {
		t.Fatalf("shed answer contained %d O3 rows", nonPartial)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("shed answer took %v; shedding must not queue", d)
	}
	if s.Metrics().Shed.Load() == 0 {
		t.Error("Shed counter not incremented")
	}

	// With slots free again the same query runs the full protocol.
	drain()
	rep, err = c.ExecutePartial(ctx, "pmv_on_sale", conds(1, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shed {
		t.Fatal("query shed with every slot free")
	}
}

// TestDeadlineExpiredOverWire sends a query whose deadline is already
// unmeetable and checks the wire-level contract: the O2 partials
// arrive flagged Partial, O3 never contributes, and the MsgDone report
// carries DeadlineExpired with no error frame.
func TestDeadlineExpiredOverWire(t *testing.T) {
	s, _, _ := testServer(t, Config{PoolSize: 2})
	addr := s.Addr().String()
	ctx := context.Background()

	warm := client.New(addr)
	defer warm.Close()
	if _, err := warm.ExecutePartial(ctx, "pmv_on_sale", conds(3, 1), nil); err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	payload, err := wire.EncodeQuery(wire.QueryRequest{
		View:     "pmv_on_sale",
		Deadline: time.Nanosecond,
		Conds:    conds(3, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(conn, wire.MsgQuery, payload); err != nil {
		t.Fatal(err)
	}

	partials := 0
	for {
		typ, body, err := wire.ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		switch typ {
		case wire.MsgRow:
			_, partial, err := wire.DecodeRow(body)
			if err != nil {
				t.Fatal(err)
			}
			if !partial {
				t.Fatal("O3 row delivered past an expired deadline")
			}
			partials++
		case wire.MsgDone:
			rep, err := wire.DecodeReport(body)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.DeadlineExpired {
				t.Fatalf("report not flagged DeadlineExpired: %+v", rep)
			}
			if partials == 0 {
				t.Fatal("expired deadline suppressed the O2 partials")
			}
			if rep.PartialTuples != partials || rep.TotalTuples != partials {
				t.Fatalf("report counts %d/%d, stream had %d partials",
					rep.PartialTuples, rep.TotalTuples, partials)
			}
			if s.Metrics().DeadlineExpired.Load() == 0 {
				t.Error("DeadlineExpired counter not incremented")
			}
			return
		case wire.MsgError:
			t.Fatalf("deadline expiry surfaced as an error: %s", body)
		default:
			t.Fatalf("unexpected frame 0x%02x", typ)
		}
	}
}

// TestAdminCommands exercises every admin request over one session.
func TestAdminCommands(t *testing.T) {
	s, _, _ := testServer(t, Config{})
	ctx := context.Background()
	c, err := client.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	views, err := c.Views(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(views) != 1 || views[0].Name != "pmv_on_sale" || views[0].Template == nil {
		t.Fatalf("views = %+v", views)
	}
	tables, err := c.Tables(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("tables = %+v", tables)
	}
	n, err := c.Count(ctx, "product")
	if err != nil {
		t.Fatal(err)
	}
	if n != 400 {
		t.Fatalf("count(product) = %d", n)
	}
	schema, err := c.Schema(ctx, "sale")
	if err != nil {
		t.Fatal(err)
	}
	// sale_pid, sale_store, and sale_store_pid, which CreatePartialView
	// derived for the view's join.
	if len(schema.Columns) != 3 || len(schema.Indexes) != 3 {
		t.Fatalf("schema = %+v", schema)
	}
	rows, err := c.Peek(ctx, "product", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("peek returned %d rows", len(rows))
	}
	if err := c.Analyze(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	// A bad request gets an error frame but keeps the session usable.
	if _, err := c.Count(ctx, "nosuch"); err == nil {
		t.Fatal("count of missing relation succeeded")
	}
	if _, err := c.Count(ctx, "sale"); err != nil {
		t.Fatalf("session dead after per-request error: %v", err)
	}
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Server.SessionsTotal == 0 || stats.Server.Errors == 0 {
		t.Fatalf("stats = %+v", stats.Server)
	}
}

// BenchmarkServe measures loopback query throughput with a warm view
// and reports the two phases of the PMV latency split as seen by the
// server: time to the last O2 partial row vs O3 execution.
func BenchmarkServe(b *testing.B) {
	s, _, _ := testServer(b, Config{})
	addr := s.Addr().String()
	ctx := context.Background()

	warm := client.New(addr)
	for c := int64(0); c < 8; c++ {
		for st := int64(0); st < 5; st++ {
			if _, err := warm.ExecutePartial(ctx, "pmv_on_sale", conds(c, st), nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	warm.Close()

	var seq int64
	var mu sync.Mutex
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		c := client.New(addr)
		defer c.Close()
		mu.Lock()
		seq++
		seed := seq
		mu.Unlock()
		i := int64(0)
		for pb.Next() {
			i++
			if _, err := c.ExecutePartial(ctx, "pmv_on_sale", conds((seed+i)%8, (seed*i)%5), nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()

	m := s.Metrics()
	if n := m.Queries.Load(); n > 0 {
		b.ReportMetric(float64(m.PartialPhase.Snapshot().P50Ns), "p50-partial-ns")
		b.ReportMetric(float64(m.ExecPhase.Snapshot().P50Ns), "p50-exec-ns")
		b.ReportMetric(float64(m.Total.Snapshot().P99Ns), "p99-total-ns")
	}
}
