// writechaos.go tortures the write plane: three shard servers, each
// running a batched maintenance plane, behind per-shard
// fault-injecting proxies; one router fanning ΔR batches to all of
// them; concurrent writers and readers hammering it while a seeded
// chaos driver blackholes links and fires reset bursts.
//
// The oracle is a per-pid version timeline. Each writer owns a
// disjoint pid set and overwrites sale.discount with a monotonically
// increasing sequence (pure overwrites — idempotent, so the writer
// may retry a batch whose fate is unknown). For every read the
// harness brackets the query with two observations per pid: the last
// sequence ACKED before the query started (the staleness floor — an
// ack means every shard applied it) and the last sequence SUBMITTED
// before the query ended (the fabrication ceiling — no higher value
// exists anywhere). A clean, unflagged query must deliver exactly the
// static pid membership of its (category, store) pair with every
// discount inside its pid's window; any older value is a stale tuple
// served unflagged, any newer one is fabricated. Flagged or
// typed-failed reads only drop the floor (a stale partial may have
// streamed before the DS audit failed the query) — the ceiling and
// the membership check still hold. After the chaos window heals, the
// writers drain every un-acked batch and a sweep demands each pair
// converge to a clean, exact answer at each pid's final sequence.
package torture

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pmv/client"
	"pmv/internal/cluster"
	"pmv/internal/maint"
	"pmv/internal/netfault"
	"pmv/internal/server"
)

// WriteOptions configures one write-chaos run.
type WriteOptions struct {
	// Seed drives the chaos schedule, every injector, and the mix.
	Seed int64
	// Writers is how many concurrent writers run (default 4).
	Writers int
	// Writes is how many acked updates each writer lands (default 40).
	Writes int
	// Readers is how many concurrent readers run (default 4).
	Readers int
	// Dir is the parent directory for the shard databases (default:
	// fresh temp dir, removed on success, kept on failure).
	Dir string
}

// WriteReport summarizes one run.
type WriteReport struct {
	Seed int64

	// Write side.
	Writes        int   // acked update batches
	WriteRetries  int   // batches re-sent after a typed failure
	WriteFailures int   // typed update failures observed
	FanoutSent    int64 // router invalidations dispatched

	// Read side, bucketed like netchaos.
	Reads       int
	Clean       int
	Flagged     int
	Interrupted int
	Unavailable int
	Remote      int
	CtxExpired  int

	// Chaos events delivered.
	Blackholes  int
	ResetBursts int
	Faults      netfault.Stats
}

// discountOf maps a pid's version sequence to the discount value it
// writes: sequence 0 is the loader's pid%50, later sequences are
// offset far above it so any value decodes to exactly one sequence.
func discountOf(pid, seq int64) int64 {
	if seq == 0 {
		return pid % 50
	}
	return 10000 + seq
}

// seqOf decodes a served discount back to its sequence (-1 = value
// that never existed for this pid).
func seqOf(pid, v int64) int64 {
	if v == pid%50 {
		return 0
	}
	if v >= 10001 {
		return v - 10000
	}
	return -1
}

// pidTimeline is one pid's write clock: sent is bumped before the
// batch hits the wire, acked after the router confirms every shard
// applied it.
type pidTimeline struct {
	sent  atomic.Int64
	acked atomic.Int64
}

// RunWrite executes one write-chaos cycle. A nil error means the
// staleness oracle held for every read and nothing leaked.
func RunWrite(opts WriteOptions) (WriteReport, error) {
	if opts.Writers <= 0 {
		opts.Writers = 4
	}
	if opts.Writes <= 0 {
		opts.Writes = 40
	}
	if opts.Readers <= 0 {
		opts.Readers = 4
	}
	cleanup := false
	if opts.Dir == "" {
		dir, err := os.MkdirTemp("", "pmv-writechaos")
		if err != nil {
			return WriteReport{}, err
		}
		opts.Dir = dir
		cleanup = true
	}
	rep := WriteReport{Seed: opts.Seed}
	fail := func(format string, args ...any) (WriteReport, error) {
		return rep, fmt.Errorf("writechaos seed %d: %s (dirs kept at %s)",
			opts.Seed, fmt.Sprintf(format, args...), opts.Dir)
	}

	baseGoroutines := runtime.NumGoroutine()

	// Static pid membership per (category, store) pair — writes only
	// overwrite discounts, never move a pid between pairs.
	members := make(map[[2]int64][]int64)
	for pid := int64(0); pid < 400; pid++ {
		pair := [2]int64{pid % chaosCategories, (pid / 8) % chaosStores}
		members[pair] = append(members[pair], pid)
	}
	timelines := make([]pidTimeline, 400)

	var (
		srvs    [clusterShards]*server.Server
		planes  [clusterShards]*maint.Plane
		injs    [clusterShards]*netfault.Injector
		proxies [clusterShards]*netfault.Proxy
	)
	shardCfg := clusterShardConfig(opts.Writers + opts.Readers)
	for i := 0; i < clusterShards; i++ {
		db, _, err := chaosDB(filepath.Join(opts.Dir, fmt.Sprintf("shard%d", i)))
		if err != nil {
			return fail("shard %d setup: %v", i, err)
		}
		defer db.Close()
		p, err := maint.New(maint.Config{Source: db, MaxDelay: time.Millisecond})
		if err != nil {
			return fail("shard %d plane: %v", i, err)
		}
		planes[i] = p
		defer p.Close()
		s := server.New(db, shardCfg)
		s.SetMaint(p)
		if err := s.Start("127.0.0.1:0"); err != nil {
			return fail("shard %d start: %v", i, err)
		}
		srvs[i] = s
		defer s.Shutdown()

		injs[i] = netfault.NewInjector(opts.Seed*clusterShards + int64(i))
		armBackground(injs[i])
		proxy, err := netfault.NewProxy("127.0.0.1:0", s.Addr().String(), injs[i])
		if err != nil {
			return fail("shard %d proxy: %v", i, err)
		}
		proxies[i] = proxy
		defer proxy.Close()
	}

	proxyAddrs := make([]string, clusterShards)
	for i, p := range proxies {
		proxyAddrs[i] = p.Addr().String()
	}
	r, err := cluster.NewRouter(cluster.Config{
		Shards:          proxyAddrs,
		PoolSize:        2,
		DialTimeout:     time.Second,
		RefillTimeout:   time.Second,
		DrainTimeout:    2 * time.Second,
		FrameTimeout:    2 * time.Second,
		WriteTimeout:    2 * time.Second,
		DefaultDeadline: 3 * time.Second,
	})
	if err != nil {
		return fail("router: %v", err)
	}
	if err := r.Start("127.0.0.1:0"); err != nil {
		return fail("router start: %v", err)
	}
	defer r.Shutdown()

	// Chaos driver: link abuse only — blackholes and reset bursts. No
	// shard kills: a killed shard would fail every in-flight update
	// (by design), starving the write workload this harness exists to
	// exercise. Kills are clusterchaos's job.
	stopChaos := make(chan struct{})
	chaosDone := make(chan struct{})
	var chaosMu sync.Mutex
	go func() {
		defer close(chaosDone)
		rng := rand.New(rand.NewSource(opts.Seed ^ 0x3417e))
		for {
			select {
			case <-stopChaos:
				return
			case <-time.After(time.Duration(150+rng.Intn(250)) * time.Millisecond):
			}
			shard := rng.Intn(clusterShards)
			if rng.Intn(2) == 0 {
				injs[shard].Add(netfault.Rule{Kind: netfault.FaultBlackhole, Op: netfault.OpAny, AfterOps: 1, Sticky: true})
				time.Sleep(time.Duration(80+rng.Intn(120)) * time.Millisecond)
				injs[shard].Clear()
				armBackground(injs[shard])
				chaosMu.Lock()
				rep.Blackholes++
				chaosMu.Unlock()
			} else {
				injs[shard].Add(netfault.Rule{Kind: netfault.FaultReset, Op: netfault.OpAny, Prob: 0.15, Sticky: true})
				time.Sleep(time.Duration(80+rng.Intn(120)) * time.Millisecond)
				injs[shard].Clear()
				armBackground(injs[shard])
				chaosMu.Lock()
				rep.ResetBursts++
				chaosMu.Unlock()
			}
		}
	}()

	var (
		mu        sync.Mutex
		violation error
	)
	abort := func(err error) {
		mu.Lock()
		if violation == nil {
			violation = err
		}
		mu.Unlock()
	}
	violated := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return violation != nil
	}
	bump := func(field *int) {
		mu.Lock()
		*field++
		mu.Unlock()
	}

	newClient := func(seed int64) *client.Client {
		return client.NewConfig(client.Config{
			Addr:          r.Addr().String(),
			DialTimeout:   2 * time.Second,
			DeadlineGrace: time.Second,
			MaxRetries:    4,
			BackoffBase:   5 * time.Millisecond,
			BackoffMax:    100 * time.Millisecond,
			Seed:          seed,
		})
	}

	// sendAcked lands one overwrite, retrying the idempotent op until
	// the router acks or attempts run out. Returns whether it acked.
	sendAcked := func(c *client.Client, rng *rand.Rand, pid, seq int64, attempts int) bool {
		tl := &timelines[pid]
		tl.sent.Store(seq)
		op := client.Set("sale", "pid", client.Int(pid), "discount", client.Int(discountOf(pid, seq)))
		for att := 0; att < attempts; att++ {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			_, err := c.Update(ctx, true, op)
			cancel()
			if err == nil {
				tl.acked.Store(seq)
				bump(&rep.Writes)
				return true
			}
			bump(&rep.WriteFailures)
			switch {
			case errors.Is(err, client.ErrRemote), errors.Is(err, client.ErrUnavailable),
				errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
			default:
				abort(fmt.Errorf("writer pid %d seq %d: untyped error %v", pid, seq, err))
				return false
			}
			bump(&rep.WriteRetries)
			time.Sleep(time.Duration(10+rng.Intn(40)) * time.Millisecond)
		}
		return false
	}

	var wg sync.WaitGroup
	writerClients := make([]*client.Client, opts.Writers)
	for w := 0; w < opts.Writers; w++ {
		writerClients[w] = newClient(opts.Seed + 100 + int64(w))
		wg.Add(1)
		go func(w int, c *client.Client) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(opts.Seed ^ int64(w)<<20))
			landed := 0
			for landed < opts.Writes && !violated() {
				// Disjoint ownership: writer w owns pid ≡ w (mod writers).
				pid := int64(rng.Intn(400/opts.Writers))*int64(opts.Writers) + int64(w)
				seq := timelines[pid].sent.Load() + 1
				if sendAcked(c, rng, pid, seq, 20) {
					landed++
				}
				time.Sleep(time.Duration(2+rng.Intn(8)) * time.Millisecond)
			}
		}(w, writerClients[w])
	}

	readerClients := make([]*client.Client, opts.Readers)
	reads := (opts.Writers * opts.Writes) / 2
	for id := 0; id < opts.Readers; id++ {
		readerClients[id] = newClient(opts.Seed + 500 + int64(id))
		wg.Add(1)
		go func(id int, c *client.Client) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(opts.Seed ^ int64(id)<<28))
			for q := 0; q < reads && !violated(); q++ {
				time.Sleep(time.Duration(5+rng.Intn(15)) * time.Millisecond)
				pair := [2]int64{rng.Int63n(chaosCategories), rng.Int63n(chaosStores)}
				pids := members[pair]

				// The staleness floor: sequences acked before the query
				// started. An older value served by a clean query below
				// is a stale tuple the plane failed to kill.
				floor := make(map[int64]int64, len(pids))
				for _, pid := range pids {
					floor[pid] = timelines[pid].acked.Load()
				}
				got := make(map[int64][]int64)
				ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
				qrep, err := c.ExecutePartial(ctx, "pmv_on_sale",
					[]client.Cond{
						{Values: []client.Value{client.Int(pair[0])}},
						{Values: []client.Value{client.Int(pair[1])}},
					},
					func(row client.Row) error {
						got[row.Tuple[0].Int64()] = append(got[row.Tuple[0].Int64()], row.Tuple[1].Int64())
						return nil
					})
				cancel()
				// The fabrication ceiling: sequences submitted anywhere
				// before the query ended. No shard can hold more.
				ceil := make(map[int64]int64, len(pids))
				for _, pid := range pids {
					ceil[pid] = timelines[pid].sent.Load()
				}

				clean := err == nil && !flagged(qrep)
				if verr := checkRead(pair, pids, got, floor, ceil, clean); verr != nil {
					abort(fmt.Errorf("reader %d read %d: %w", id, q, verr))
					return
				}
				bump(&rep.Reads)
				switch {
				case clean:
					bump(&rep.Clean)
				case err == nil:
					bump(&rep.Flagged)
				case errors.Is(err, client.ErrInterrupted):
					bump(&rep.Interrupted)
				case errors.Is(err, client.ErrUnavailable):
					bump(&rep.Unavailable)
				case errors.Is(err, client.ErrRemote):
					bump(&rep.Remote)
				case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
					bump(&rep.CtxExpired)
				default:
					abort(fmt.Errorf("reader %d read %d pair %v: untyped error %v", id, q, pair, err))
					return
				}
			}
		}(id, readerClients[id])
	}

	wg.Wait()
	close(stopChaos)
	<-chaosDone
	for _, inj := range injs {
		inj.Clear()
	}

	// Drain: re-send every batch whose fate is unknown over the healed
	// links until each pid's timeline converges (acked == sent), so the
	// sweep below can demand exact final values.
	if !violated() {
		drain := newClient(opts.Seed + 900)
		rng := rand.New(rand.NewSource(opts.Seed ^ 0xd7a17))
		for pid := int64(0); pid < 400; pid++ {
			tl := &timelines[pid]
			if s := tl.sent.Load(); s != tl.acked.Load() {
				if !sendAcked(drain, rng, pid, s, 50) {
					abort(fmt.Errorf("drain: pid %d never converged (sent %d acked %d)", pid, s, tl.acked.Load()))
					break
				}
			}
		}
		drain.Close()
	}

	// Sweep: every pair must converge to one clean, exact answer at
	// each pid's final sequence — proving every shard holds the final
	// base data and no cache anywhere still serves a pre-drain value.
	if !violated() {
		sweep := newClient(opts.Seed + 1000)
		for cat := int64(0); cat < chaosCategories && !violated(); cat++ {
			for st := int64(0); st < chaosStores && !violated(); st++ {
				pair := [2]int64{cat, st}
				pids := members[pair]
				final := make(map[int64]int64, len(pids))
				for _, pid := range pids {
					final[pid] = timelines[pid].acked.Load()
				}
				converged := false
				var lastErr error
				for att := 0; att < 10 && !converged; att++ {
					got := make(map[int64][]int64)
					ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
					qrep, err := sweep.ExecutePartial(ctx, "pmv_on_sale",
						[]client.Cond{
							{Values: []client.Value{client.Int(cat)}},
							{Values: []client.Value{client.Int(st)}},
						},
						func(row client.Row) error {
							got[row.Tuple[0].Int64()] = append(got[row.Tuple[0].Int64()], row.Tuple[1].Int64())
							return nil
						})
					cancel()
					clean := err == nil && !flagged(qrep)
					if verr := checkRead(pair, pids, got, final, final, clean); verr != nil {
						abort(fmt.Errorf("sweep attempt %d: %w", att, verr))
						break
					}
					if clean {
						converged = true
					} else {
						lastErr = err
						time.Sleep(50 * time.Millisecond)
					}
				}
				if !converged && !violated() {
					abort(fmt.Errorf("sweep pair %v never converged to a clean exact answer (last: %v)", pair, lastErr))
				}
			}
		}
		sweep.Close()
	}

	for _, c := range writerClients {
		c.Close()
	}
	for _, c := range readerClients {
		c.Close()
	}
	rep.FanoutSent = r.Metrics().FanoutSent.Load()
	for _, inj := range injs {
		st := inj.Stats()
		rep.Faults.Conns += st.Conns
		rep.Faults.Ops += st.Ops
		rep.Faults.BytesRead += st.BytesRead
		rep.Faults.BytesWritten += st.BytesWritten
		rep.Faults.Resets += st.Resets
		rep.Faults.Corruptions += st.Corruptions
		rep.Faults.Blackholes += st.Blackholes
		rep.Faults.PartialWrites += st.PartialWrites
	}

	if violation != nil {
		return fail("%v", violation)
	}

	// Teardown must leave nothing behind: router, proxies, planes,
	// shards, and finally the goroutine census.
	if err := r.Shutdown(); err != nil {
		return fail("router shutdown: %v", err)
	}
	if n := r.Metrics().SessionsActive.Load(); n != 0 {
		return fail("%d router sessions still active after shutdown", n)
	}
	for i, p := range proxies {
		if err := p.Close(); err != nil {
			return fail("proxy %d close: %v", i, err)
		}
	}
	for i := 0; i < clusterShards; i++ {
		if err := srvs[i].Shutdown(); err != nil {
			return fail("shard %d shutdown: %v", i, err)
		}
		if err := planes[i].Close(); err != nil {
			return fail("shard %d plane close: %v", i, err)
		}
		if n := srvs[i].Metrics().Snapshot().SessionsActive; n != 0 {
			return fail("shard %d: %d sessions still active after shutdown", i, n)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseGoroutines {
		if time.Now().After(deadline) {
			return fail("goroutine leak: %d running, %d at start", runtime.NumGoroutine(), baseGoroutines)
		}
		time.Sleep(20 * time.Millisecond)
	}

	if cleanup {
		os.RemoveAll(opts.Dir)
	}
	return rep, nil
}

// checkRead applies the version-timeline oracle to one read's
// delivery. Clean reads must be exact: the full membership, each pid
// once, every sequence inside [floor, ceil]. Non-clean reads drop the
// floor and the completeness demand but keep membership, uniqueness,
// and the ceiling.
func checkRead(pair [2]int64, pids []int64, got map[int64][]int64, floor, ceil map[int64]int64, clean bool) error {
	for pid, vals := range got {
		c, ok := ceil[pid]
		if !ok {
			return fmt.Errorf("pair %v: fabricated pid %d delivered", pair, pid)
		}
		if len(vals) > 1 {
			return fmt.Errorf("pair %v: pid %d delivered %d times", pair, pid, len(vals))
		}
		seq := seqOf(pid, vals[0])
		if seq < 0 || seq > c {
			return fmt.Errorf("pair %v: pid %d delivered discount %d (seq %d), never written (ceiling %d)",
				pair, pid, vals[0], seq, c)
		}
		if clean && seq < floor[pid] {
			return fmt.Errorf("pair %v: STALE tuple served unflagged: pid %d at seq %d, acked floor %d",
				pair, pid, seq, floor[pid])
		}
	}
	if clean && len(got) != len(pids) {
		return fmt.Errorf("pair %v: clean read delivered %d of %d pids", pair, len(got), len(pids))
	}
	return nil
}
