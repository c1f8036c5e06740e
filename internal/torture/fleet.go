package torture

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"pmv"
	"pmv/internal/cluster"
	"pmv/internal/maint"
	"pmv/internal/netfault"
	"pmv/internal/server"
	"pmv/internal/snapshot"
)

// shard is one pmvd process of the fleet: a database over chaosDB's
// data, its optional write plane and snapshot manager, the server, and
// the fault proxy every byte to it crosses.
type shard struct {
	dir, snapDir string
	addr         string // the server's address, kept across kills and reboots
	db           *pmv.DB
	srv          *server.Server
	plane        *maint.Plane
	snaps        *snapshot.Manager
	inj          *netfault.Injector
	proxy        *netfault.Proxy
}

// fleet is a scenario's topology. With one shard clients dial its
// proxy; with more, a router scatter-gathers across the proxies.
type fleet struct {
	sc       *Scenario
	shards   []*shard
	router   *cluster.Router
	addr     string // where clients dial
	restarts int    // shard kills and reboots, by fault events or checks
}

// newFleet boots the fleet under dir. On error the caller still closes
// it, which stops whatever had started.
func newFleet(sc *Scenario, seed int64, dir string) (*fleet, error) {
	f := &fleet{sc: sc}
	for i := 0; i < sc.shards; i++ {
		s := &shard{
			dir:     filepath.Join(dir, fmt.Sprintf("shard%d", i)),
			snapDir: filepath.Join(dir, fmt.Sprintf("snap%d", i)),
			addr:    "127.0.0.1:0",
			inj:     netfault.NewInjector(seed*int64(sc.shards) + int64(i)),
		}
		f.shards = append(f.shards, s)
		db, err := chaosDB(s.dir)
		if err != nil {
			return f, fmt.Errorf("shard %d: %w", i, err)
		}
		res, err := f.boot(s, db)
		if err == nil && res.Warm {
			err = errors.New("first boot claims warm from an empty directory")
		}
		if err != nil {
			return f, fmt.Errorf("shard %d: %w", i, err)
		}
		f.armBackground(s.inj)
		if s.proxy, err = netfault.NewProxy("127.0.0.1:0", s.addr, s.inj); err != nil {
			return f, fmt.Errorf("shard %d proxy: %w", i, err)
		}
	}
	f.addr = f.shards[0].proxy.Addr().String()
	if sc.shards == 1 {
		return f, nil
	}
	cfg := cluster.Config{
		PoolSize:        2,
		DialTimeout:     time.Second,
		RefillTimeout:   time.Second,
		DrainTimeout:    2 * time.Second,
		FrameTimeout:    2 * time.Second,
		WriteTimeout:    2 * time.Second,
		DefaultDeadline: 3 * time.Second,
		// Short heartbeats so breakers score a gray ramp within one event.
		TailTolerance:     sc.tail,
		Hedge:             sc.tail,
		HeartbeatInterval: 100 * time.Millisecond,
		// Fast pushes and refreshes so replicas and bitsets form, churn
		// and get invalidated many times within one short run.
		Hot:                   sc.hot,
		HotPushInterval:       100 * time.Millisecond,
		FilterRefreshInterval: 100 * time.Millisecond,
	}
	for _, s := range f.shards {
		cfg.Shards = append(cfg.Shards, s.proxy.Addr().String())
	}
	r, err := cluster.NewRouter(cfg)
	if err != nil {
		return f, fmt.Errorf("router: %w", err)
	}
	if err := r.Start("127.0.0.1:0"); err != nil {
		return f, fmt.Errorf("router start: %w", err)
	}
	f.router, f.addr = r, r.Addr().String()
	return f, nil
}

// armBackground installs the low-grade faults every shard link carries
// between events. A lone shard's link is the clients' own: it carries
// twice the rates and the odd blackhole, which only the client's
// deadline and the server's idle reaper recover from.
func (f *fleet) armBackground(inj *netfault.Injector) {
	shape, p, hole := netfault.Shape{Latency: 100 * time.Microsecond, Jitter: 200 * time.Microsecond}, 0.001, 0.0
	if f.sc.shards == 1 {
		shape, p, hole = netfault.Shape{Latency: 200 * time.Microsecond, Jitter: 300 * time.Microsecond}, 0.002, 0.0005
	}
	inj.SetShape(shape)
	inj.Add(netfault.Rule{Kind: netfault.FaultReset, Op: netfault.OpAny, Prob: 2 * p, Sticky: true})
	inj.Add(netfault.Rule{Kind: netfault.FaultCorrupt, Op: netfault.OpAny, Prob: p, Sticky: true})
	inj.Add(netfault.Rule{Kind: netfault.FaultPartialWrite, Op: netfault.OpWrite, Prob: p, Sticky: true})
	inj.Add(netfault.Rule{Kind: netfault.FaultBlackhole, Op: netfault.OpAny, Prob: hole, Sticky: true})
}

// boot brings a shard's process up over db: the planes the scenario
// asks for, then the server. It reports the snapshot load, cold when
// the shard keeps no snapshots.
func (f *fleet) boot(s *shard, db *pmv.DB) (res snapshot.LoadResult, err error) {
	s.db = db
	if f.sc.hot {
		// A short window so admission clears within the first queries.
		db.EnableFreq(pmv.FreqConfig{Window: 300 * time.Millisecond})
	}
	if f.sc.plane {
		if s.plane, err = maint.New(maint.Config{Source: db}); err != nil {
			return res, err
		}
	}
	if f.sc.snapshots {
		// Fast enough that mid-run reboots race the writer.
		s.snaps, err = snapshot.NewManager(snapshot.Config{Dir: s.snapDir, Source: db, Interval: 150 * time.Millisecond})
		if err != nil {
			return res, err
		}
		res = s.snaps.Load()
		s.snaps.Start()
	}
	return res, f.serve(s)
}

// serve starts a server for s's database on s's address, retrying
// while a dead predecessor still holds it.
func (f *fleet) serve(s *shard) error {
	cfg := server.Config{
		PoolSize:     2,
		DrainTimeout: time.Second,
		MaxConns:     4*(f.sc.readers+f.sc.writers) + 16,
		IdleTimeout:  time.Second,
		FrameTimeout: time.Second,
		WriteTimeout: time.Second,
	}
	if f.sc.shards == 1 {
		// The clients dial this server themselves: a cap just above their
		// count (a reconnect briefly counts a client twice), and a reaper
		// quick enough to reclaim blackholed sessions within the run.
		cfg.MaxConns, cfg.IdleTimeout = 2*(f.sc.readers+f.sc.writers)+4, 500*time.Millisecond
	}
	srv := server.New(s.db, cfg)
	srv.SetMaint(s.plane)
	srv.SetSnapshots(s.snaps)
	var err error
	for att := 0; att < 100; att++ {
		if err = srv.Start(s.addr); err == nil {
			s.srv, s.addr = srv, srv.Addr().String()
			return nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("bind %s: %w", s.addr, err)
}

// stop takes a shard's process down — server, write plane, snapshot
// manager (which writes its final snapshot), database — and reports a
// session that outlived its server.
func (f *fleet) stop(s *shard) error {
	var errs []error
	if s.srv != nil {
		errs = append(errs, s.srv.Shutdown())
		if n := s.srv.Metrics().Snapshot().SessionsActive; n != 0 {
			errs = append(errs, fmt.Errorf("%d sessions still active after shutdown", n))
		}
	}
	if s.plane != nil {
		errs = append(errs, s.plane.Close())
	}
	if s.snaps != nil {
		errs = append(errs, s.snaps.Close())
	}
	if s.db != nil {
		errs = append(errs, s.db.Close())
	}
	s.srv, s.plane, s.snaps, s.db = nil, nil, nil, nil
	return errors.Join(errs...)
}

// reboot is a whole-process death: the shard stops, tamper (if any)
// edits what it left on disk, and it boots again from the disk alone.
func (f *fleet) reboot(s *shard, tamper func(*shard) error) (snapshot.LoadResult, error) {
	f.restarts++
	if err := f.stop(s); err != nil {
		return snapshot.LoadResult{}, err
	}
	if tamper != nil {
		if err := tamper(s); err != nil {
			return snapshot.LoadResult{}, fmt.Errorf("tamper: %w", err)
		}
	}
	db, err := pmv.Open(s.dir, pmv.Options{})
	if err != nil {
		return snapshot.LoadResult{}, err
	}
	return f.boot(s, db)
}

// close tears the fleet down in dependency order — the router (which
// drains client sessions and its shard pools), the proxies, the shards
// — and reports anything the census found left behind.
func (f *fleet) close() error {
	var errs []error
	if r := f.router; r != nil {
		f.router = nil
		errs = append(errs, r.Shutdown())
		if n := r.Metrics().SessionsActive.Load(); n != 0 {
			errs = append(errs, fmt.Errorf("%d router sessions still active after shutdown", n))
		}
	}
	for _, s := range f.shards {
		if s.proxy != nil {
			errs = append(errs, s.proxy.Close())
			s.proxy = nil
		}
	}
	for i, s := range f.shards {
		if err := f.stop(s); err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", i, err))
		}
	}
	return errors.Join(errs...)
}

// An event is one fault drive fires at a shard.
type event string

const (
	kill      event = "kill"      // the server dies and restarts in place: cache kept, epoch 0
	reboot    event = "reboot"    // the whole process dies and boots again from disk
	blackhole event = "blackhole" // the link swallows every byte
	burst     event = "burst"     // the link resets one op in five
	gray      event = "gray"      // the link slides toward 10×-slow
	flap      event = "flap"      // the link oscillates between slow and clean
)

var events = []event{kill, reboot, blackhole, burst, gray, flap}

// drive fires the scenario's events at random shards until stop closes,
// counting what it delivered.
func (f *fleet) drive(seed int64, stop <-chan struct{}, fired map[string]int) error {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for {
		select {
		case <-stop:
			return nil
		case <-time.After(time.Duration(100+rng.Intn(200)) * time.Millisecond):
		}
		ev := f.sc.events[rng.Intn(len(f.sc.events))]
		if err := f.fire(ev, f.shards[rng.Intn(len(f.shards))], rng); err != nil {
			return fmt.Errorf("%s: %w", ev, err)
		}
		fired[string(ev)]++
	}
}

// fire delivers one event. A link fault holds for a while and heals.
func (f *fleet) fire(ev event, s *shard, rng *rand.Rand) error {
	ms := func(lo, spread int) time.Duration { return time.Duration(lo+rng.Intn(spread)) * time.Millisecond }
	hold := ms(100, 200)
	switch ev {
	case kill:
		f.restarts++
		s.srv.Shutdown()
		time.Sleep(ms(50, 100))
		return f.serve(s)
	case reboot:
		_, err := f.reboot(s, nil)
		return err
	case blackhole:
		s.inj.Add(netfault.Rule{Kind: netfault.FaultBlackhole, Op: netfault.OpAny, AfterOps: 1, Sticky: true})
	case burst:
		s.inj.Add(netfault.Rule{Kind: netfault.FaultReset, Op: netfault.OpAny, Prob: 0.2, Sticky: true})
	case gray:
		s.inj.SetShape(netfault.Shape{
			Latency:     100 * time.Microsecond,
			Jitter:      200 * time.Microsecond,
			RampLatency: ms(20, 40),
			RampOver:    ms(100, 100),
		})
		hold += 100 * time.Millisecond
	case flap:
		s.inj.SetShape(netfault.Shape{Latency: ms(20, 40), FlapUp: ms(50, 100), FlapDown: ms(50, 100)})
		hold += 100 * time.Millisecond
	}
	time.Sleep(hold)
	s.inj.Clear()
	f.armBackground(s.inj) // SetShape also restarts the ramp clock
	return nil
}
