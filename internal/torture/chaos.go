// chaos.go is the network torture harness: one scenario runner over a
// fleet of real pmvd shards behind fault-injecting proxies, optionally
// a router in front, concurrent self-healing clients, and one oracle.
//
// A scenario is a row of Scenarios: the fleet (one shard, or three
// behind a router with its tail or frequency plane; per shard a write
// plane, snapshots or the frequency plane), the fault events fired on
// a seeded schedule (kill in place, reboot from disk, blackhole, reset
// burst, gray ramp, flap), the workload (readers choosing pairs
// uniformly, by Zipf rank or among absent keys; monotone per-pid
// writers; the single hot writer) and the row's own check. A run goes
// through the same phases for every row: the workload under faults,
// heal, drain the writes whose fate is unknown, a convergence sweep
// that demands one clean exact read of every pair at its final
// versions, the row's check, the invariants every row holds, and the
// teardown census (no session or goroutine outlives the fleet).
//
// Oracle semantics. Every read is held to checkRead: each pid of the
// queried pair has a version window [floor, ceil] — the version acked
// before the read started and the version sent before it ended; [0, 0]
// for a pid no writer touches. A clean completion delivers every member
// exactly once inside its window. A flagged completion, a typed
// interruption or a typed failure delivers a subset: members only, at
// most two distinct versions per pid (a read racing a write, which the
// DS audit fails typed), never the same version twice, nothing above
// the ceiling. An untyped error fails the run like a violation does.
package torture

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"pmv/client"
	"pmv/internal/netfault"
	"pmv/internal/snapshot"
	"pmv/internal/vfs"
	"pmv/internal/workload"
)

// Scenario is one row of the chaos table. Seeds is the row's CI seed
// count; the sizes below are per seed.
type Scenario struct {
	Name  string
	Seeds int

	// The fleet: one shard that clients dial through its proxy, or three
	// behind a router, optionally with its tail-tolerance plane (health,
	// breakers, hedged probes) or its frequency plane (top-k replicas,
	// presence-filter suppression; the shards then run theirs). Each
	// shard may run a batched write plane or a snapshot manager.
	shards           int
	tail, hot        bool
	plane, snapshots bool

	// The fault events the schedule draws from; none leaves only the
	// background faults every link carries.
	events []event

	// The workload. Readers issue queries each, choosing pairs
	// uniformly. Writers land writes acked overwrites each over disjoint
	// pid sets. With hot, readers choose pairs by Zipf rank (α 1.2) and
	// one in ten among keys no row has, and the hot writer makes
	// hotPid's pair hot and overwrites hotPid until the readers finish.
	readers, queries int
	writers, writes  int

	// check is the row's own assertion, run after the convergence sweep.
	check func(*run) error
}

// Scenarios is the chaos table.
var Scenarios = []Scenario{
	// pmvd alone behind a faulty link: resets, bit flips, torn frames.
	{Name: "net", Seeds: 3, shards: 1, readers: 8, queries: 50},
	// Exec failover, probe degradation and the epoch re-teach under load.
	{Name: "cluster", Seeds: 1, shards: 3, events: []event{kill, blackhole, burst}, readers: 6, queries: 30},
	// Hedged probes race duplicate row streams while shards go gray.
	{Name: "cluster-tail", Seeds: 1, shards: 3, tail: true,
		events: []event{kill, blackhole, burst, gray, flap}, readers: 4, queries: 20},
	// A replicated hot row is overwritten while pushes, invalidations,
	// suppressed probes and kills race.
	{Name: "cluster-hot", Seeds: 1, shards: 3, hot: true, events: []event{kill, blackhole, burst},
		readers: 4, queries: 40, check: hotCheck},
	// Kills are whole-process deaths that boot from disk and snapshot.
	{Name: "restart", Seeds: 3, shards: 3, snapshots: true, events: []event{reboot, blackhole, burst},
		readers: 4, queries: 20, check: restartCheck},
	// Batched ΔR writes fan out while links fail. No kills: a killed
	// shard fails every in-flight update by design.
	{Name: "write", Seeds: 3, shards: 3, plane: true, events: []event{blackhole, burst},
		readers: 4, queries: 80, writers: 4, writes: 40},
}

// hotPid is the hot writer's pid; its pair (7, 4) is the coldest Zipf
// rank, so only the hot writer's own reads make it hot.
const hotPid = 39

// Report summarizes one scenario run.
type Report struct {
	Scenario string
	Seed     int64
	// Reads counts workload reads by bucket (see buckets).
	Reads map[string]int
	// Writes counts acked overwrites, WriteRetries the typed failures
	// that were retried.
	Writes, WriteRetries int
	// Events counts the fault events delivered, by kind.
	Events           map[string]int
	Faults           netfault.Stats
	Retries, Redials int64
	// Router counters; AuditFailures counts queries the DS audit failed.
	EpochInstalls, AuditFailures, FanoutSent      int64
	Hedges, HedgeWins, BreakerTrips, BreakerSkips int64
	// The cluster-hot check's frequency-plane counters.
	HotPushes, HotInvals, HotReplicaHits, HotSuppressed int64
	// The restart check's warm boots and sweep hit rates.
	WarmEntries              int64
	WarmHitRate, ColdHitRate float64
}

// String renders the report as one line, leaving zero counters out.
func (rep Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s seed=%d", rep.Scenario, rep.Seed)
	add := func(k string, v int64) {
		if v != 0 {
			fmt.Fprintf(&b, " %s=%d", k, v)
		}
	}
	for _, k := range buckets {
		add(k, int64(rep.Reads[k]))
	}
	add("writes", int64(rep.Writes))
	add("write-retries", int64(rep.WriteRetries))
	for _, ev := range events {
		add(string(ev)+"s", int64(rep.Events[string(ev)]))
	}
	for _, kv := range []struct {
		k string
		v int64
	}{
		{"resets", rep.Faults.Resets}, {"corrupt", rep.Faults.Corruptions},
		{"tears", rep.Faults.PartialWrites}, {"blackholed", rep.Faults.Blackholes},
		{"retries", rep.Retries}, {"redials", rep.Redials},
		{"installs", rep.EpochInstalls}, {"audits", rep.AuditFailures}, {"fanout", rep.FanoutSent},
		{"hedges", rep.Hedges}, {"hedgewins", rep.HedgeWins}, {"trips", rep.BreakerTrips}, {"skips", rep.BreakerSkips},
		{"pushes", rep.HotPushes}, {"invals", rep.HotInvals}, {"replicahits", rep.HotReplicaHits}, {"suppressed", rep.HotSuppressed},
		{"warm-entries", rep.WarmEntries},
	} {
		add(kv.k, kv.v)
	}
	if rep.WarmEntries != 0 {
		fmt.Fprintf(&b, " hitrate=%.3f coldrate=%.3f", rep.WarmHitRate, rep.ColdHitRate)
	}
	return b.String()
}

// run is one scenario run in progress.
type run struct {
	sc   *Scenario
	seed int64
	f    *fleet
	tl   []pidTimeline // per pid

	mu  sync.Mutex // guards rep and err while clients run
	rep *Report
	err error // the first violation
}

// RunScenario runs one seed of sc. A nil error means the oracle held
// for every read, every check passed and nothing outlived the fleet.
// The scenario's directories are removed on success and kept (and
// named in the error) on failure.
func RunScenario(sc Scenario, seed int64) (rep Report, err error) {
	rep = Report{Scenario: sc.Name, Seed: seed, Reads: map[string]int{}, Events: map[string]int{}}
	dir, err := os.MkdirTemp("", "pmv-chaos")
	if err != nil {
		return rep, err
	}
	defer func() {
		if err != nil {
			err = fmt.Errorf("%s seed %d: %w (dirs kept at %s)", sc.Name, seed, err, dir)
		} else {
			os.RemoveAll(dir)
		}
	}()
	base := runtime.NumGoroutine()
	f, err := newFleet(&sc, seed, dir)
	if err == nil {
		r := &run{sc: &sc, seed: seed, f: f, tl: make([]pidTimeline, chaosPids), rep: &rep}
		err = r.phases()
	}
	if cerr := f.close(); err == nil && cerr != nil {
		err = fmt.Errorf("teardown: %w", cerr)
	}
	if err != nil {
		return rep, err
	}
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			return rep, fmt.Errorf("goroutine leak: %d running, %d at start", runtime.NumGoroutine(), base)
		}
		time.Sleep(20 * time.Millisecond)
	}
	return rep, nil
}

func (r *run) phases() error {
	// Faults: the workload runs while drive fires events.
	stop, driven := make(chan struct{}), make(chan error, 1)
	if len(r.sc.events) == 0 {
		driven <- nil
	} else {
		go func() { driven <- r.f.drive(r.seed, stop, r.rep.Events) }()
	}
	r.workload()
	close(stop)
	err := errors.Join(r.err, <-driven)
	// Heal.
	for _, s := range r.f.shards {
		s.inj.Clear()
	}
	if err != nil {
		return err
	}
	if err := r.drain(); err != nil {
		return err
	}
	if err := r.sweep("convergence sweep"); err != nil {
		return err
	}
	if r.sc.check != nil {
		if err := r.sc.check(r); err != nil {
			return err
		}
	}
	return r.invariants()
}

// invariants are the checks every row holds once its own passed.
func (r *run) invariants() error {
	rep := r.rep
	for _, s := range r.f.shards {
		st := s.inj.Stats()
		rep.Faults.Conns += st.Conns
		rep.Faults.Ops += st.Ops
		rep.Faults.BytesRead += st.BytesRead
		rep.Faults.BytesWritten += st.BytesWritten
		rep.Faults.Resets += st.Resets
		rep.Faults.Corruptions += st.Corruptions
		rep.Faults.Blackholes += st.Blackholes
		rep.Faults.PartialWrites += st.PartialWrites
	}
	static := r.sc.writers == 0 && !r.sc.hot
	switch {
	case rep.Reads["clean"] == 0:
		return errors.New("no read completed cleanly — the run is all noise")
	case !static && rep.Writes == 0:
		return errors.New("no write was ever acked — the run is all noise")
	case r.f.router == nil:
		return nil
	}
	m := r.f.router.Metrics()
	rep.AuditFailures, rep.FanoutSent = m.DSLeftover.Load(), m.FanoutSent.Load()
	for _, sm := range m.Shards {
		rep.EpochInstalls += sm.EpochInstalls.Load()
		rep.Hedges += sm.HedgesSent.Load()
		rep.HedgeWins += sm.HedgeWins.Load()
		rep.BreakerTrips += sm.BreakerTrips.Load()
		rep.BreakerSkips += sm.BreakerSkips.Load()
	}
	// The sweep probed every bcp, so every restarted shard met the
	// router's epoch check and had to be re-taught the shard map.
	if r.f.restarts > 0 && rep.EpochInstalls <= int64(r.sc.shards) {
		return fmt.Errorf("%d shard restarts but only %d epoch installs; the re-teach path never ran",
			r.f.restarts, rep.EpochInstalls)
	}
	// With no writes, nothing can legitimately fail the audit: hedges and
	// refills must keep DS consumption exactly once.
	if static && rep.AuditFailures != 0 {
		return fmt.Errorf("%d queries failed the duplicate-multiset audit", rep.AuditFailures)
	}
	return nil
}

func (r *run) fail(err error) {
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.mu.Unlock()
}

func (r *run) violated() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err != nil
}

func (r *run) tally(fn func(*Report)) {
	r.mu.Lock()
	fn(r.rep)
	r.mu.Unlock()
}

// withClient runs fn over a fresh self-healing client and folds its
// retry counters into the report.
func (r *run) withClient(seed int64, fn func(*client.Client)) {
	c := client.NewConfig(client.Config{
		Addr:          r.f.addr,
		DialTimeout:   2 * time.Second,
		DeadlineGrace: time.Second,
		MaxRetries:    4,
		BackoffBase:   5 * time.Millisecond,
		BackoffMax:    100 * time.Millisecond,
		Seed:          seed,
	})
	fn(c)
	cs := c.Counters()
	r.tally(func(rep *Report) { rep.Retries += cs.Retries; rep.Redials += cs.Redials })
	c.Close()
}

// workload runs the readers and writers to completion; the hot writer
// runs until the readers are done.
func (r *run) workload() {
	var readers, writers sync.WaitGroup
	for id := 0; id < r.sc.readers; id++ {
		readers.Add(1)
		go func() { defer readers.Done(); r.reader(id) }()
	}
	for w := 0; w < r.sc.writers; w++ {
		writers.Add(1)
		go func() { defer writers.Done(); r.writer(w) }()
	}
	done := make(chan struct{})
	if r.sc.hot {
		writers.Add(1)
		go func() { defer writers.Done(); r.hotWriter(done) }()
	}
	readers.Wait()
	close(done)
	writers.Wait()
}

func (r *run) reader(id int) {
	rng := rand.New(rand.NewSource(r.seed ^ int64(id)<<16))
	var zipf *workload.Zipf
	if r.sc.hot {
		zipf = workload.NewZipf(rng, chaosCategories*chaosStores, 1.2)
	}
	r.withClient(r.seed+int64(id)+1, func(c *client.Client) {
		for q := 0; q < r.sc.queries && !r.violated(); q++ {
			if len(r.sc.events) > 0 {
				// Pace the reads so the events interleave with them
				// instead of firing into an idle fleet.
				time.Sleep(time.Duration(5+rng.Intn(15)) * time.Millisecond)
			}
			pair := [2]int64{rng.Int63n(chaosCategories), rng.Int63n(chaosStores)}
			switch {
			case r.sc.hot && rng.Intn(10) == 0:
				// No product has this category: the answer is empty, so a
				// suppression that invented a row is caught.
				pair[0] = chaosCategories + rng.Int63n(100)
			case zipf != nil:
				rank := int64(zipf.Draw())
				pair = [2]int64{rank % chaosCategories, rank / chaosCategories}
			}
			if !r.countRead(c, pair, fmt.Sprintf("reader %d query %d", id, q)) {
				return
			}
		}
	})
}

// countRead is read for a workload client: it tallies the bucket, or
// records the violation and reports false.
func (r *run) countRead(c *client.Client, pair [2]int64, who string) bool {
	b, _, err := r.read(c, pair)
	if err != nil {
		r.fail(fmt.Errorf("%s: %w", who, err))
		return false
	}
	r.tally(func(rep *Report) { rep.Reads[b]++ })
	return true
}

// read runs one query of pair and holds its delivery to the oracle.
// It returns the bucket the query ended in, the query's own error, and
// the violation (an untyped error is one).
func (r *run) read(c *client.Client, pair [2]int64) (b string, qerr, err error) {
	pids := members(pair)
	wins := make(map[int64]window, len(pids))
	for _, pid := range pids {
		wins[pid] = window{floor: r.tl[pid].acked.Load()}
	}
	got := make(map[int64][]int64)
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	qrep, qerr := c.ExecutePartial(ctx, chaosView, conds(pair), func(row client.Row) error {
		pid := row.Tuple[0].Int64()
		got[pid] = append(got[pid], row.Tuple[1].Int64())
		return nil
	})
	cancel()
	for _, pid := range pids {
		wins[pid] = window{floor: wins[pid].floor, ceil: r.tl[pid].sent.Load()}
	}
	if b = outcome(qrep, qerr); b == "" {
		return b, qerr, fmt.Errorf("pair %v: untyped error %v", pair, qerr)
	}
	if err := checkRead(wins, got, b == "clean"); err != nil {
		return b, qerr, fmt.Errorf("pair %v (%s, err=%v): %w", pair, b, qerr, err)
	}
	return b, qerr, nil
}

// write lands version seq of pid, retrying the idempotent overwrite
// through typed failures up to attempts times. It reports whether the
// write was acked; an unacked one only widens later reads' windows.
func (r *run) write(c *client.Client, rng *rand.Rand, pid, seq int64, attempts int) (bool, error) {
	r.tl[pid].sent.Store(seq)
	op := client.Set("sale", "pid", client.Int(pid), "discount", client.Int(discountOf(pid, seq)))
	for att := 0; att < attempts; att++ {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_, err := c.Update(ctx, true, op)
		cancel()
		if err == nil {
			r.tl[pid].acked.Store(seq)
			r.tally(func(rep *Report) { rep.Writes++ })
			return true, nil
		}
		if outcome(client.Report{}, err) == "" {
			return false, fmt.Errorf("pid %d seq %d: untyped error %v", pid, seq, err)
		}
		r.tally(func(rep *Report) { rep.WriteRetries++ })
		time.Sleep(time.Duration(10+rng.Intn(40)) * time.Millisecond)
	}
	return false, nil
}

func (r *run) writer(w int) {
	rng := rand.New(rand.NewSource(r.seed ^ int64(w)<<20))
	r.withClient(r.seed+100+int64(w), func(c *client.Client) {
		for landed := 0; landed < r.sc.writes && !r.violated(); {
			// Writer w owns the pids ≡ w (mod writers).
			pid := int64(rng.Intn(chaosPids/r.sc.writers)*r.sc.writers + w)
			ok, err := r.write(c, rng, pid, r.tl[pid].sent.Load()+1, 20)
			if err != nil {
				r.fail(fmt.Errorf("writer %d: %w", w, err))
				return
			}
			if ok {
				landed++
			}
			time.Sleep(time.Duration(2+rng.Intn(8)) * time.Millisecond)
		}
	})
}

// hotWriter reads hotPid's pair back to back until the router
// replicates it, and overwrites hotPid between reads, so every
// invalidation path runs against a live replica.
func (r *run) hotWriter(done <-chan struct{}) {
	rng := rand.New(rand.NewSource(r.seed ^ 0x407))
	r.withClient(r.seed+500, func(c *client.Client) {
		for !r.violated() {
			select {
			case <-done:
				return
			case <-time.After(time.Duration(2+rng.Intn(8)) * time.Millisecond):
			}
			if rng.Intn(4) != 0 {
				if !r.countRead(c, pairOf(hotPid), "hot writer") {
					return
				}
				continue
			}
			if _, err := r.write(c, rng, hotPid, r.tl[hotPid].sent.Load()+1, 10); err != nil {
				r.fail(fmt.Errorf("hot writer: %w", err))
				return
			}
		}
	})
}

// drain re-sends, over the healed links, every write whose fate is
// unknown, so that the sweep can demand each pid's final version.
func (r *run) drain() (err error) {
	rng := rand.New(rand.NewSource(r.seed ^ 0xd7a17))
	r.withClient(r.seed+900, func(c *client.Client) {
		for pid := range r.tl {
			tl := &r.tl[pid]
			if s := tl.sent.Load(); s != tl.acked.Load() && err == nil {
				ok, werr := r.write(c, rng, int64(pid), s, 50)
				if werr == nil && !ok {
					werr = fmt.Errorf("pid %d never acked seq %d", pid, s)
				}
				err = werr
			}
		}
	})
	if err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	return nil
}

// sweep demands one clean read of every pair at its final versions —
// every shard holds the final base data and no cache or replica serves
// an older version. It retries a pair for up to 10s through what the
// faults left behind (stale pooled connections, an epoch to re-teach,
// a breaker's cooldown), holding every attempt to the oracle.
func (r *run) sweep(stage string) (err error) {
	r.withClient(r.seed+1000, func(c *client.Client) {
		for rank := int64(0); rank < chaosCategories*chaosStores && err == nil; rank++ {
			pair := [2]int64{rank % chaosCategories, rank / chaosCategories}
			for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(100 * time.Millisecond) {
				b, qerr, rerr := r.read(c, pair)
				if rerr != nil || b == "clean" {
					err = rerr
					break
				}
				if time.Now().After(deadline) {
					err = fmt.Errorf("pair %v never converged to a clean exact answer (last: %s, %v)", pair, b, qerr)
					break
				}
			}
		}
	})
	if err != nil {
		return fmt.Errorf("%s: %w", stage, err)
	}
	return nil
}

// hotCheck fails a run whose frequency plane never replicated, served,
// suppressed or invalidated anything: it held the oracle vacuously.
func hotCheck(r *run) error {
	c := client.New(r.f.addr)
	defer c.Close()
	st, err := c.Stats(context.Background())
	if err != nil {
		return fmt.Errorf("router stats: %w", err)
	}
	h := st.Hot
	if h == nil || h.Pushes == 0 || h.Invals == 0 || h.ReplicaHits == 0 || h.Suppressed == 0 {
		return fmt.Errorf("hot-plane counters never moved: %+v", h)
	}
	r.rep.HotPushes, r.rep.HotInvals, r.rep.HotReplicaHits, r.rep.HotSuppressed = h.Pushes, h.Invals, h.ReplicaHits, h.Suppressed
	return nil
}

// restartCheck proves a warm restart pays for itself, and that a
// damaged snapshot degrades to a cold boot that still answers exactly.
func restartCheck(r *run) error {
	// The convergence sweep saw every pair once; a 2Q policy caches on
	// the second sighting.
	if err := r.sweep("warming sweep"); err != nil {
		return err
	}
	// Warm: every shard boots holding exactly what it held at death (a
	// shard owning none of the bcps legitimately holds nothing).
	for i, s := range r.f.shards {
		v, _ := s.db.ViewByName(chaosView)
		pre := v.Len()
		res, err := r.f.reboot(s, nil)
		if err != nil {
			return fmt.Errorf("warm reboot of shard %d: %w", i, err)
		}
		if !res.Warm || res.Entries != pre || res.Rejected != 0 {
			return fmt.Errorf("shard %d rebooted warm=%v with %d entries (%d rejected), cache held %d at death: %s",
				i, res.Warm, res.Entries, res.Rejected, pre, res.Reason)
		}
		r.rep.WarmEntries += int64(res.Entries)
	}
	if r.rep.WarmEntries == 0 {
		return errors.New("warm reboots recovered zero entries; the warming sweeps left nothing to snapshot")
	}
	warm, err := r.hitRate("warm sweep")
	if err != nil {
		return err
	}
	// Cold: the same reboots with the snapshots gone.
	removed := func(s *shard) error { return os.Remove(filepath.Join(s.snapDir, snapshot.FileName)) }
	for i, s := range r.f.shards {
		if res, err := r.f.reboot(s, removed); err != nil || res.Warm {
			return fmt.Errorf("cold reboot of shard %d (warm=%v): %v", i, res.Warm, err)
		}
	}
	cold, err := r.hitRate("cold sweep")
	if err != nil {
		return err
	}
	r.rep.WarmHitRate, r.rep.ColdHitRate = warm, cold
	if warm < cold+0.25 {
		return fmt.Errorf("warm sweep hit rate %.3f does not beat cold %.3f by 0.25 — warm restarts are not paying off", warm, cold)
	}
	// Damage: a bit-flipped snapshot on shard 0, and on shard 1 a trusted
	// epoch moved past the snapshot's stamp, as if the cluster
	// reconfigured while the shard was down.
	epoch := r.f.shards[1].snaps.Epoch()
	for i, tc := range []struct {
		reason string
		tamper func(*shard) error
	}{
		{"corrupt", func(s *shard) error {
			path := filepath.Join(s.snapDir, snapshot.FileName)
			img, err := os.ReadFile(path)
			if err != nil || len(img) == 0 {
				return fmt.Errorf("snapshot to corrupt: %d bytes, %v", len(img), err)
			}
			img[len(img)-1] ^= 0x40
			return os.WriteFile(path, img, 0o644)
		}},
		{"epoch", func(s *shard) error { return snapshot.WriteEpochState(vfs.OS(), s.snapDir, epoch+100) }},
	} {
		res, err := r.f.reboot(r.f.shards[i], tc.tamper)
		if err != nil || res.Warm || !strings.Contains(res.Reason, tc.reason) {
			return fmt.Errorf("shard %d rebooted from a %s-damaged snapshot: warm=%v reason %q, %v",
				i, tc.reason, res.Warm, res.Reason, err)
		}
	}
	return r.sweep("post-rejection sweep")
}

// hitRate runs a sweep over freshly booted views and returns its O2
// part hit rate.
func (r *run) hitRate(stage string) (float64, error) {
	if err := r.sweep(stage); err != nil {
		return 0, err
	}
	var probed, hits int64
	for _, s := range r.f.shards {
		v, _ := s.db.ViewByName(chaosView)
		st := v.Stats()
		probed, hits = probed+st.PartsProbed, hits+st.PartHits
	}
	if probed == 0 {
		return 0, nil
	}
	return float64(hits) / float64(probed), nil
}
