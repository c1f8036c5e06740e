// router.go is the scatter-gather front end of the cluster plane. A
// Router speaks the same wire protocol as pmvd, so existing clients
// point at it unchanged, but behind each query it runs the paper's
// protocol across shards: core.Run, the one driver a local view runs
// too, over a routedSource whose phases are
//
//	O1  local — BreakConditions via an engine-free BCPCoder built from
//	    the view's template and dividers (fetched once per view from a
//	    shard),
//	O2  scattered — condition parts are grouped by the shard map's
//	    owner and probed concurrently, one batch per owning shard; the
//	    cached Ls′ partials go into core's DS table and to the client as
//	    they arrive (the first flushed at once, the rest when the
//	    scatter returns),
//	O3  on any one shard — every shard holds the full base data, so
//	    the blocking plan runs once, round-robined with failover while
//	    zero O3 rows have been emitted; DS consumes the duplicates of
//	    already-streamed partials,
//	refill — O3 rows of bcps that delivered no partial fan back to the
//	    bcp owners asynchronously, never retried (shard-side refill is
//	    idempotent at entry granularity, so at-most-once is safe and
//	    at-least-once is not needed).
//
// Degradation mirrors the single-node PMV-less path: a shard that is
// down, blackholed, or answering MsgErrEpoch after a restart costs its
// partials (Report.Degraded), never correctness. If every shard
// refuses O3 but partials were delivered, the query closes
// PartialOnly+Degraded — the same contract as single-node admission
// shedding. A deadline that runs out keeps the partials and flags
// DeadlineExpired, as it does locally. Leftover DS tokens on a cleanly
// completed query fail core's exactly-once audit loudly.
package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pmv/client"
	"pmv/internal/core"
	"pmv/internal/expr"
	"pmv/internal/keycodec"
	"pmv/internal/obs"
	"pmv/internal/session"
	"pmv/internal/value"
	"pmv/internal/wire"
)

// Config tunes a Router.
type Config struct {
	// Shards lists the shard addresses (index = shard id). Required.
	Shards []string
	// Epoch stamps the initial shard map (default 1; must be nonzero).
	Epoch uint64
	// PoolSize bounds concurrently routed O3s; queries beyond it are
	// shed to probes-only answers. Default: GOMAXPROCS.
	PoolSize int
	// DefaultDeadline bounds queries that carry none (0 = unbounded).
	DefaultDeadline time.Duration
	// DialTimeout bounds each shard dial (default 2s).
	DialTimeout time.Duration
	// RefillTimeout bounds each asynchronous fan-out, refill or
	// invalidation (default 2s).
	RefillTimeout time.Duration
	// DrainTimeout bounds Shutdown's wait for in-flight sessions.
	// Default 5s.
	DrainTimeout time.Duration
	// MaxConns caps concurrently open client sessions (0 = unlimited).
	MaxConns int
	// IdleTimeout reclaims client sessions idle between requests (0 =
	// sessions may idle forever).
	IdleTimeout time.Duration
	// FrameTimeout bounds one request frame's arrival once started.
	// Default 30s; negative disables.
	FrameTimeout time.Duration
	// WriteTimeout bounds each response write. Default 30s; negative
	// disables.
	WriteTimeout time.Duration
	// Trace samples every routed query into the trace store at startup
	// (togglable at runtime via MsgTrace).
	Trace bool
	// SlowThreshold records routed queries at or above this duration in
	// the slow ring (0 = disabled at startup; togglable via MsgTrace).
	SlowThreshold time.Duration

	// TailTolerance enables the tail-tolerance plane: per-shard health
	// scoring fed by every probe/exec/refill outcome plus a heartbeat,
	// circuit breakers that skip-and-flag sick shards instead of
	// awaiting them, and deadline-budget propagation on probe/refill
	// requests. Off by default; when off, none of the machinery runs,
	// allocates, or adds wire bytes.
	TailTolerance bool
	// Hedge enables hedged O2 probes (implies TailTolerance): a probe
	// still outstanding past the shard's adaptive hedge delay races a
	// second copy, first-wins with cancellation, capped by a token
	// budget.
	Hedge bool
	// HeartbeatInterval paces the health pings (default 500ms).
	HeartbeatInterval time.Duration
	// BreakerCooldown is the first open period before a half-open trial
	// (default 500ms, jittered, doubling per re-trip up to
	// BreakerMaxCooldown, default 8s and never below BreakerCooldown).
	BreakerCooldown    time.Duration
	BreakerMaxCooldown time.Duration
	// HedgeMaxDelay caps the adaptive hedge delay (default 50ms; the
	// floor is hedgeMinDelay).
	HedgeMaxDelay time.Duration

	// Hot enables the router half of the frequency plane: a per-view
	// top-k tracker over probed bcp keys, a router-side replica cache
	// answering hot probes locally, per-shard presence-filter bitsets
	// suppressing provably-absent owner probes, and the periodic
	// MsgHotSet fan-out replicating the hot set to every shard. Off by
	// default; when off, none of the machinery runs, allocates, or
	// adds wire bytes.
	Hot bool
	// HotK is the per-view hot-set size (default 8).
	HotK int
	// HotPushInterval paces MsgHotSet replication (default 1s).
	HotPushInterval time.Duration
	// FilterRefreshInterval paces presence-filter snapshot refetches
	// (default 1s).
	FilterRefreshInterval time.Duration
}

func (c *Config) fill() error {
	if len(c.Shards) == 0 {
		return errors.New("cluster: router needs at least one shard")
	}
	if c.Epoch == 0 {
		c.Epoch = 1
	}
	if c.PoolSize <= 0 {
		c.PoolSize = runtime.GOMAXPROCS(0)
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.RefillTimeout <= 0 {
		c.RefillTimeout = 2 * time.Second
	}
	if c.Hedge {
		c.TailTolerance = true
	}
	if c.TailTolerance {
		if c.HeartbeatInterval <= 0 {
			c.HeartbeatInterval = 500 * time.Millisecond
		}
		if c.BreakerCooldown <= 0 {
			c.BreakerCooldown = 500 * time.Millisecond
		}
		if c.BreakerMaxCooldown <= 0 {
			c.BreakerMaxCooldown = 8 * time.Second
		}
		// The cap never sits below the first cooldown, or re-trips
		// would open for less time than the first trip did.
		c.BreakerMaxCooldown = max(c.BreakerMaxCooldown, c.BreakerCooldown)
		if c.HedgeMaxDelay <= 0 {
			c.HedgeMaxDelay = 50 * time.Millisecond
		}
	}
	if c.Hot {
		if c.HotK <= 0 {
			c.HotK = 8
		}
		if c.HotPushInterval <= 0 {
			c.HotPushInterval = time.Second
		}
		if c.FilterRefreshInterval <= 0 {
			c.FilterRefreshInterval = time.Second
		}
	}
	return nil
}

// Router serves the pmvd wire protocol by scattering the PMV protocol
// over a set of shards. The embedded session kernel (internal/session)
// owns the client sessions; Start and Shutdown wrap it with the
// router's background loops and fan-out drains.
type Router struct {
	*session.Kernel
	cfg     Config
	metrics *Metrics
	sem     chan struct{} // admission slots for routed O3s
	rr      atomic.Int64  // exec round-robin cursor

	smu  sync.Mutex
	smap *ShardMap

	pools []*pool

	vmu   sync.Mutex
	views map[string]*viewMeta

	bgWG     sync.WaitGroup // map install, heartbeat and hot-plane loops
	refillWG sync.WaitGroup
	invalWG  sync.WaitGroup
	gate     refillGate // orders refills against writes (write.go)

	traces *traceStore

	// tt is the tail-tolerance plane (health scoring, breakers, hedge
	// budget); nil unless Config.TailTolerance — every touchpoint is a
	// single nil check when disabled.
	tt *tailTolerance

	// hot is the frequency plane (top-k tracking, replica cache,
	// probe suppression, MsgHotSet fan-out); nil unless Config.Hot,
	// same disabled-cost contract as tt.
	hot *hotPlane
}

// viewMeta is the router's cached routing metadata for one view:
// everything needed to run O1 and project Ls′ rows without a database.
type viewMeta struct {
	name      string
	tpl       *expr.Template
	coder     *core.BCPCoder
	nUserCols int
	condPos   []int // each condition attribute's slot in Ls′ rows
}

// bcpKey encodes the bcp containing Ls′ row t, exactly as its owning
// shard would; condVals, of len(condPos), and buf are caller scratch.
func (vm *viewMeta) bcpKey(t value.Tuple, condVals []value.Value, buf *[]byte) string {
	for i, p := range vm.condPos {
		condVals[i] = t[p]
	}
	*buf = vm.coder.AppendKey((*buf)[:0], condVals)
	return string(*buf)
}

// NewRouter builds a router over cfg.Shards without listening.
func NewRouter(cfg Config) (*Router, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	smap, err := NewShardMap(cfg.Epoch, cfg.Shards, DefaultVNodes)
	if err != nil {
		return nil, err
	}
	r := &Router{
		cfg:     cfg,
		metrics: newMetrics(cfg.Shards),
		sem:     make(chan struct{}, cfg.PoolSize),
		smap:    smap,
		pools:   make([]*pool, len(cfg.Shards)),
		views:   make(map[string]*viewMeta),
		traces:  newTraceStore(),
	}
	r.Kernel = session.New("router", session.Config{
		MaxConns:      cfg.MaxConns,
		IdleTimeout:   cfg.IdleTimeout,
		FrameTimeout:  cfg.FrameTimeout,
		WriteTimeout:  cfg.WriteTimeout,
		DrainTimeout:  cfg.DrainTimeout,
		Trace:         cfg.Trace,
		SlowThreshold: cfg.SlowThreshold,
	}, &r.metrics.Counters, r.dispatch, wire.MsgQuery, wire.MsgUpdate)
	if cfg.TailTolerance {
		r.tt = newTailTolerance(&r.cfg, len(cfg.Shards))
	}
	if cfg.Hot {
		r.hot = newHotPlane(r)
	}
	for i, addr := range cfg.Shards {
		r.pools[i] = newPool(addr, cfg.DialTimeout)
	}
	return r, nil
}

// Metrics exposes the live counters.
func (r *Router) Metrics() *Metrics { return r.metrics }

// shardMap returns the current map.
func (r *Router) shardMap() *ShardMap {
	r.smu.Lock()
	defer r.smu.Unlock()
	return r.smap
}

// Start listens on addr and accepts sessions until Shutdown. It also
// pushes the shard map to every shard in the background, best-effort —
// a shard that is down bootstraps later through the MsgErrEpoch path.
func (r *Router) Start(addr string) error {
	if err := r.Kernel.Start(addr); err != nil {
		return err
	}
	r.bgWG.Add(1)
	go func() {
		defer r.bgWG.Done()
		r.installEverywhere(r.shardMap())
	}()
	if r.tt != nil {
		r.bgWG.Add(1)
		go r.heartbeatLoop()
	}
	if r.hot != nil {
		r.bgWG.Add(2)
		go r.hotPushLoop()
		go r.hotFilterLoop()
	}
	return nil
}

// installEverywhere pushes m to every shard, best-effort.
func (r *Router) installEverywhere(m *ShardMap) {
	for i := range r.pools {
		r.installOn(i, m)
	}
}

// installOn pushes m to one shard. Failures are tolerated: the shard
// will ask again through MsgErrEpoch the first time it is probed.
func (r *Router) installOn(shard int, m *ShardMap) bool {
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.DialTimeout+time.Second)
	defer cancel()
	c := r.pools[shard].get()
	err := c.InstallShardMap(ctx, m.Wire())
	r.pools[shard].put(c, err == nil)
	if err != nil {
		return false
	}
	r.metrics.Shards[shard].EpochInstalls.Add(1)
	return true
}

// Shutdown stops accepting, drains sessions (bounded by DrainTimeout),
// waits for the background loops and in-flight refill and invalidation
// fan-outs, and closes the shard pools.
func (r *Router) Shutdown() error {
	err := r.Kernel.Shutdown()
	r.bgWG.Wait()     // bounded: every loop selects on Closing
	r.refillWG.Wait() // bounded: each refill runs under RefillTimeout
	r.invalWG.Wait()  // bounded: each invalidation runs under RefillTimeout
	for _, p := range r.pools {
		p.close()
	}
	return err
}

// dispatch answers one request; mirror of the single-node dispatch with
// admin traffic proxied to shards where that is meaningful.
func (r *Router) dispatch(sess *session.Session, typ byte, payload []byte) error {
	switch typ {
	case wire.MsgQuery:
		return r.handleQuery(sess, payload)
	case wire.MsgStats:
		return sess.Reply(wire.StatsReply{Server: r.metrics.ServerStats(), Maint: r.metrics.maintStats(), Hot: r.hotStats()})
	case wire.MsgUpdate:
		return r.handleUpdate(sess, payload)
	case wire.MsgInvalidate:
		return sess.WriteErr(errors.New("router: invalidate is a shard request; this is a router"))
	case wire.MsgViews, wire.MsgTables, wire.MsgSchema, wire.MsgCount, wire.MsgPeek, wire.MsgViewStats:
		// Reads against base data or view metadata: any healthy shard's
		// answer is as good as another's.
		return r.forwardFirst(sess, typ, payload)
	case wire.MsgAnalyze, wire.MsgCheckpoint:
		return r.forwardAll(sess, typ, payload)
	case wire.MsgShardMap:
		return r.handleShardMap(sess, payload)
	case wire.MsgShards:
		return r.handleShards(sess)
	case wire.MsgTraceGet:
		return r.handleTraceGet(sess, payload)
	case wire.MsgFleet:
		return r.handleFleet(sess)
	case wire.MsgPing:
		// Routers are health-checked the same way shards are.
		return sess.Pong(payload, r.shardMap().Epoch())
	case wire.MsgProbeParts, wire.MsgExec, wire.MsgRefill:
		return sess.WriteErr(errors.New("router: shard-internal request; this is a router"))
	default:
		return session.ErrUnknownRequest
	}
}

// adminCtx bounds a proxied admin round trip.
func (r *Router) adminCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), r.cfg.DialTimeout+5*time.Second)
}

// forwardFirst relays an admin request to the first shard that answers.
func (r *Router) forwardFirst(sess *session.Session, typ byte, payload []byte) error {
	ctx, cancel := r.adminCtx()
	defer cancel()
	var lastErr error
	for shard := range r.pools {
		c := r.pools[shard].get()
		raw, err := c.Forward(ctx, typ, payload)
		r.pools[shard].put(c, err == nil || errors.Is(err, client.ErrRemote))
		if err == nil {
			return sess.WriteFrame(wire.MsgReply, raw)
		}
		if errors.Is(err, client.ErrRemote) {
			// The shard answered; its refusal is the answer.
			return sess.WriteErr(err)
		}
		lastErr = err
	}
	return sess.WriteErr(fmt.Errorf("router: no shard reachable: %w", lastErr))
}

// forwardAll relays maintenance to every shard; the first failure is
// reported (shards already reached stay done — both commands are
// idempotent).
func (r *Router) forwardAll(sess *session.Session, typ byte, payload []byte) error {
	ctx, cancel := r.adminCtx()
	defer cancel()
	for shard := range r.pools {
		c := r.pools[shard].get()
		_, err := c.Forward(ctx, typ, payload)
		r.pools[shard].put(c, err == nil || errors.Is(err, client.ErrRemote))
		if err != nil {
			return sess.WriteErr(fmt.Errorf("router: shard %s: %w", r.cfg.Shards[shard], err))
		}
	}
	return sess.Reply(wire.OKReply{OK: true})
}

// handleShardMap reads (empty payload) or replaces (JSON payload) the
// authoritative map. A replacement must advance the epoch; it is pushed
// to every shard before the reply so a successful install means the
// cluster is routed by the new map.
func (r *Router) handleShardMap(sess *session.Session, payload []byte) error {
	if len(payload) > 0 {
		var mr wire.ShardMapReply
		if err := json.Unmarshal(payload, &mr); err != nil {
			return sess.WriteErr(fmt.Errorf("router: bad shard map: %w", err))
		}
		m, err := FromWire(mr)
		if err != nil {
			return sess.WriteErr(err)
		}
		r.smu.Lock()
		if m.Epoch() <= r.smap.Epoch() {
			cur := r.smap.Epoch()
			r.smu.Unlock()
			return sess.WriteErr(fmt.Errorf("router: new epoch %d does not advance current %d", m.Epoch(), cur))
		}
		if len(m.Shards()) != len(r.smap.Shards()) {
			r.smu.Unlock()
			return sess.WriteErr(errors.New("router: changing the shard set requires a restart (static pools)"))
		}
		r.smap = m
		r.smu.Unlock()
		if r.tt != nil {
			// Epoch-aware reset: the re-teach invalidates suspicion
			// accrued under the old map, and the install traffic itself
			// must not be refused by a breaker left open.
			r.tt.resetBreakers()
		}
		r.installEverywhere(m)
	}
	return sess.Reply(r.shardMap().Wire())
}

// handleShards reports cluster status: per-shard reachability, the
// epoch each shard has installed, and its view occupancy.
func (r *Router) handleShards(sess *session.Session) error {
	m := r.shardMap()
	out := wire.ShardsReply{
		Epoch:  m.Epoch(),
		VNodes: m.Wire().VNodes,
		Shards: make([]wire.ShardInfo, len(r.pools)),
	}
	ctx, cancel := r.adminCtx()
	defer cancel()
	var wg sync.WaitGroup
	for shard := range r.pools {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			info := wire.ShardInfo{Addr: r.cfg.Shards[shard]}
			c := r.pools[shard].get()
			sm, err := c.ShardMap(ctx)
			if err == nil {
				info.Up = true
				info.Epoch = sm.Epoch
				if views, verr := c.Views(ctx); verr == nil {
					info.Views = views
				}
				if st, serr := c.Stats(ctx); serr == nil {
					info.Snapshot = st.Snapshot
				}
			} else {
				info.Error = err.Error()
			}
			r.pools[shard].put(c, err == nil)
			out.Shards[shard] = info
		}(shard)
	}
	wg.Wait()
	return sess.Reply(out)
}

// viewMeta returns the cached routing metadata for a view, fetching it
// from the first healthy shard on a cold miss.
func (r *Router) viewMeta(ctx context.Context, name string) (*viewMeta, error) {
	r.vmu.Lock()
	if vm, ok := r.views[name]; ok {
		r.vmu.Unlock()
		return vm, nil
	}
	r.vmu.Unlock()

	// Open-breaker shards go last: a cold metadata miss on a fresh view
	// must not stall every first query behind a known-sick shard when
	// any healthy one can answer.
	order := r.execOrder(0, len(r.pools))
	var lastErr error
	for i := range r.pools {
		shard := i
		if order != nil {
			shard = order[i]
		}
		c := r.pools[shard].get()
		views, err := c.Views(ctx)
		r.pools[shard].put(c, err == nil)
		if err != nil {
			lastErr = err
			continue
		}
		for _, vi := range views {
			if vi.Name != name {
				continue
			}
			coder, err := core.NewBCPCoder(vi.Template, vi.Dividers, vi.MaxConditionParts)
			if err != nil {
				return nil, err
			}
			_, condPos := core.SelectPlusLayout(vi.Template)
			vm := &viewMeta{
				name:      name,
				tpl:       vi.Template,
				coder:     coder,
				nUserCols: len(vi.Template.Select),
				condPos:   condPos,
			}
			r.vmu.Lock()
			r.views[name] = vm
			r.vmu.Unlock()
			return vm, nil
		}
		return nil, fmt.Errorf("router: no view %q", name)
	}
	return nil, fmt.Errorf("router: no shard reachable for view metadata: %w", lastErr)
}

// handleQuery runs the PMV protocol for one client query through
// core.Run over the shards (routedSource).
func (r *Router) handleQuery(sess *session.Session, payload []byte) error {
	req, err := wire.DecodeQuery(payload)
	if err != nil {
		return sess.WriteErr(err)
	}

	// Trace setup before any shard call: the trace rides the context
	// into every probe/exec/refill, so shard span reports fan back into
	// it automatically through the client layer.
	tr := sess.Trace(req.View, r.SlowNs())
	o := &queryObs{tr: tr, view: req.View, allocMark: tr.AllocMark()}

	ctx := context.Background()
	deadline := req.Deadline
	if deadline <= 0 {
		deadline = r.cfg.DefaultDeadline
	}
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}
	ctx = obs.WithTrace(ctx, tr)

	meta, err := r.viewMeta(ctx, req.View)
	if err != nil {
		return sess.WriteErr(err)
	}
	q := &expr.Query{Template: meta.tpl, Conds: req.Conds}
	if err := q.Validate(); err != nil {
		return sess.WriteErr(err)
	}

	// Admission, decided before any work like the single-node server's:
	// a shed query gets a probes-only answer, bounded work and flagged.
	shed := false
	select {
	case r.sem <- struct{}{}:
		defer func() { <-r.sem }()
		tr.Event(obs.KindQueue, 1, 0, 0)
	default:
		shed = true
		tr.Event(obs.KindQueue, 0, 0, 0)
		o.degrade("shed: partial-only answer")
	}

	src := &routedSource{r: r, meta: meta, sess: sess, o: o, condVals: make([]value.Value, len(meta.condPos))}
	if r.hot != nil {
		// The capture generation: a write to this view between here and a
		// capture discards the capture, so in-flight pre-write tuples can
		// never repopulate a dropped replica.
		src.hotGen = r.hot.viewGen(meta.name)
	}
	start := time.Now()
	// The flush at the phase boundary puts every partial on the client's
	// socket before the O3 exec goes out.
	rep, err := core.Run(ctx, src, q, meta.nUserCols, shed, func(res core.Result) error {
		return sess.WriteRow(res.Tuple, res.Partial)
	}, sess.Flush)
	if werr := sess.Err(); werr != nil {
		return werr
	}
	wrep := wire.Report{
		Hit:             rep.Hit,
		Skipped:         rep.Skipped,
		Degraded:        src.degraded,
		DeadlineExpired: rep.DeadlineExpired,
		PartialOnly:     rep.PartialOnly,
		Shed:            shed,
		ConditionParts:  rep.ConditionParts,
		PartialTuples:   rep.PartialTuples,
		TotalTuples:     rep.TotalTuples,
		PartialLatency:  rep.PartialLatency,
		ExecLatency:     src.execLatency,
	}
	if err != nil {
		if src.execErr == nil || len(src.fresh) > 0 || rep.PartialTuples == 0 {
			return sess.WriteErr(err)
		}
		// Every shard refused O3 but the partials stand: close the
		// stream the way single-node degradation does. This is the
		// slow-ring's most important customer: the query degraded to the
		// flagged PMV-only subset, so it is recorded with a reason
		// regardless of how fast it was.
		r.metrics.Degraded.Add(1)
		wrep.Degraded, wrep.PartialOnly = true, true
		o.degrade(fmt.Sprintf("o3 failed on every shard: %v", src.execErr))
	}
	return r.finishQuery(sess, wrep, start, o)
}

// routedSource is the router's side of one query (core.Source): O1 on
// the router, O2 scattered to the bcp owners, O3 one plain execution
// per shard in failover order, and the refill fanned back to the
// owners of the bcps that served nothing.
type routedSource struct {
	r      *Router
	meta   *viewMeta
	sess   *session.Session
	o      *queryObs
	hotGen uint64

	mu       sync.Mutex    // serializes the probe goroutines' rows
	condVals []value.Value // bcpKey scratch, under mu
	keyBuf   []byte        // bcpKey scratch, under mu
	key      []byte        // an O3 row's encoding for DS, in Exec
	parts    []core.ConditionPart
	degraded bool // some shard's partials were lost

	// O3: the failover order, the refill gate's verdict as O3 began,
	// the last attempt's shard failure, the shard-side latency of the
	// attempt that answered, and the rows to refill.
	first       int
	order       []int
	gateSeq     int64
	gateOK      bool
	execErr     error
	execLatency time.Duration
	fresh       []value.Tuple
}

func (s *routedSource) Parts(buf *core.PartBuf, q *expr.Query) ([]core.ConditionPart, error) {
	return s.meta.coder.BreakConditionsInto(buf, q)
}

// Probe scatters the parts to their owners. Each row's bcp key is
// computed once, for DS's served set and the hot plane's capture.
func (s *routedSource) Probe(ctx context.Context, parts []core.ConditionPart, emit func(value.Tuple, string) error) (core.ProbeReport, error) {
	s.parts = parts
	rows := 0
	start := time.Now()
	hit, degraded := s.r.scatterProbes(ctx, s.meta, parts, func(t value.Tuple) error {
		s.mu.Lock()
		defer s.mu.Unlock()
		key := s.meta.bcpKey(t, s.condVals, &s.keyBuf)
		if s.r.hot != nil {
			// Capture hot keys' partials into the replica cache; dup-safe
			// (replica-served tuples re-arrive here and are deduped).
			s.r.hot.capture(s.meta, key, t, s.hotGen)
		}
		rows++
		return emit(t, key)
	})
	s.r.metrics.Scatter.Observe(time.Since(start))
	s.r.metrics.PartialRows.Add(int64(rows))
	if degraded {
		// The query may still close cleanly, but some shard's cached
		// partials were silently lost — record it either way.
		s.degraded = true
		s.o.degrade("probe degraded: shard partials lost")
	}
	return core.ProbeReport{Hit: hit}, s.sess.Err()
}

// Exec runs O3 over q on the i-th shard of the round-robin failover
// order: every shard holds the full base data. The shard does not know
// DS, so each row it returns is encoded here for dup. Probe marks no
// part Whole (a probe reply does not say whether an entry is complete),
// so q is the whole query.
func (s *routedSource) Exec(ctx context.Context, i int, q *expr.Query, dup func([]byte) bool, emit func(value.Tuple) error) (bool, error) {
	r := s.r
	n := len(r.pools)
	if i == 0 {
		s.gateSeq, s.gateOK = r.gate.begin()
		s.first = int(r.rr.Add(1)-1) % n
		s.order = r.execOrder(s.first, n)
	}
	more := i+1 < n
	s.execErr = nil
	if err := ctx.Err(); err != nil {
		return more, err // never sent: no shard to blame
	}
	shard := (s.first + i) % n
	if s.order != nil {
		shard = s.order[i]
	}
	sm := r.metrics.Shards[shard]
	sm.Execs.Add(1)
	c := r.pools[shard].get()
	if dup != nil {
		fresh := emit
		emit = func(t value.Tuple) error {
			s.key = keycodec.AppendTuple(s.key[:0], t)
			if dup(s.key) {
				return nil
			}
			return fresh(t)
		}
	}
	rep, err := c.ExecPlain(ctx, s.meta.name, q.Conds, emit)
	r.pools[shard].put(c, err == nil || errors.Is(err, client.ErrRemote))
	if err == nil || ctx.Err() == nil {
		// Exec latency is workload-shaped, so only the verdict feeds the
		// failure detector (d=0); a deadline-ended attempt blames
		// neither side.
		r.noteOutcome(shard, outcomeExec, 0, err, false)
	}
	if err == nil {
		r.metrics.Exec.Observe(rep.ExecLatency)
		s.execLatency = rep.ExecLatency
		if rep.DeadlineExpired {
			return more, context.DeadlineExceeded
		}
		return more, nil
	}
	sm.ExecFailures.Add(1)
	if werr := s.sess.Err(); werr != nil {
		return false, werr
	}
	if ctxErr := ctx.Err(); ctxErr != nil {
		return more, ctxErr // the deadline, not the shard, ended the attempt
	}
	s.execErr = err
	return more, fmt.Errorf("router: query execution failed: %w", err)
}

func (s *routedSource) Fill(t value.Tuple) { s.fresh = append(s.fresh, t.Clone()) }

func (s *routedSource) Refill(served []string) {
	if len(s.fresh) == 0 {
		return
	}
	skip := make(map[string]struct{}, len(served))
	for _, k := range served {
		skip[k] = struct{}{}
	}
	s.r.spawnRefill(s.o.tr, s.meta, s.fresh, skip, s.hotGen, s.gateSeq, s.gateOK)
}

// Invalidate reacts to a failed audit: an owner's entry holds a row
// execution no longer produces (a write that bypassed the router, say),
// so the bcps that served a partial are invalidated, as a failed local
// audit does, and the retry the error invites converges instead of
// failing on the same entry forever.
func (s *routedSource) Invalidate(keys []string) {
	if s.r.hot != nil {
		// A leftover with replication in play can mean a stale shard-side
		// hot entry whose invalidation was lost; fan a fresh one so the
		// next read converges.
		s.r.hot.repair(s.meta, s.parts)
	}
	s.r.spawnInvalidate(s.meta.name, keys)
	s.r.metrics.DSLeftover.Add(1)
}

// finishQuery records the closing metrics and observability (trace
// store, slow ring, span fan-back), then writes the MsgDone frame.
func (r *Router) finishQuery(sess *session.Session, rep wire.Report, start time.Time, o *queryObs) error {
	r.metrics.Queries.Add(1)
	r.metrics.Rows.Add(int64(rep.TotalTuples))
	if rep.Shed {
		r.metrics.Shed.Add(1)
	}
	if rep.PartialOnly {
		r.metrics.PartialOnly.Add(1)
	}
	if rep.DeadlineExpired {
		r.metrics.DeadlineExpired.Add(1)
	}
	if rep.Degraded && !rep.PartialOnly {
		r.metrics.Degraded.Add(1)
	}
	r.metrics.Total.Observe(time.Since(start))
	r.recordQuery(sess, rep, start, o)
	if err := sess.EmitSpans(o.tr); err != nil {
		return err
	}
	return sess.WriteFrame(wire.MsgDone, wire.EncodeReport(nil, rep))
}

// scatterProbes groups parts by owner and probes the owning shards
// concurrently. emit is called once per cached Ls′ tuple (from probe
// goroutines — it must be internally synchronized). Returns whether any
// bcp hit and whether any shard's partials were lost to failure.
func (r *Router) scatterProbes(ctx context.Context, meta *viewMeta, parts []core.ConditionPart, emit func(value.Tuple) error) (hit, degraded bool) {
	if len(parts) == 0 {
		return false, false
	}
	m := r.shardMap()
	groups := make(map[int][]wire.ProbePart)
	for i := range parts {
		p := &parts[i]
		wp := wire.ProbePart{Key: p.BCPKey, Exact: p.Exact}
		if !p.Exact {
			wp.Conds = p.CondInstances()
		}
		owner := m.Owner(p.BCPKey)
		// Frequency plane: an exact part may be answered from the
		// router's replica cache (hot key) or skipped outright when the
		// owner's presence-filter bitset proves the key absent; either
		// way the owner probe is saved. Inexact parts need shard-side
		// residual filtering, so only the absence proof applies.
		if r.hot != nil {
			if p.Exact {
				switch r.hot.probeLocal(meta.name, owner, p.BCPKey, emit) {
				case hotServed:
					hit = true
					continue
				case hotSuppressed:
					continue
				}
			} else if r.hot.suppressOnly(meta.name, owner, p.BCPKey) {
				continue
			}
		}
		groups[owner] = append(groups[owner], wp)
	}

	tr := obs.FromContext(ctx)
	var (
		mu      sync.Mutex
		wg      sync.WaitGroup
		skipped bool
	)
	for shard, batch := range groups {
		// Breaker gate: a shard scored sick is skipped-and-flagged, the
		// same degradation contract as a dead shard — except no one
		// waits for it.
		admit, trial := r.allowProbe(shard)
		if !admit {
			skipped = true
			if tr.Enabled() {
				tr.AddSpans(obs.Span{
					Kind:   obs.KindO2Probe,
					Start:  time.Since(tr.Begin),
					N1:     int64(len(batch)),
					Source: r.cfg.Shards[shard] + " (breaker open)",
				})
			}
			continue
		}
		wg.Add(1)
		go func(shard int, batch []wire.ProbePart, trial bool) {
			defer wg.Done()
			var pStart time.Time
			if tr.Enabled() {
				pStart = time.Now()
			}
			rep, err := r.hedgedProbeShard(ctx, shard, meta.name, m, batch, trial, emit)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				degraded = true
				if tr.Enabled() {
					// A successful probe's spans fan back from the shard
					// itself; only a lost shard needs a router-observed
					// span, or it would vanish from the timeline.
					tr.AddSpans(obs.Span{
						Kind:   obs.KindO2Probe,
						Start:  pStart.Sub(tr.Begin),
						Dur:    time.Since(pStart),
						N1:     int64(len(batch)),
						Source: r.cfg.Shards[shard] + " (lost)",
					})
				}
				return
			}
			if rep.Hit {
				hit = true
			}
		}(shard, batch, trial)
	}
	wg.Wait()
	return hit, degraded || skipped
}

// probeShard sends one probe batch, re-installing the shard map and
// retrying once when the shard answers MsgErrEpoch (the deterministic
// restart-recovery path: a rebooted shard holds epoch 0 until a router
// re-teaches it the map). Epoch errors arrive before any row, so the
// retry can never duplicate a partial.
func (r *Router) probeShard(ctx context.Context, shard int, view string, m *ShardMap, batch []wire.ProbePart, trial bool, emit func(value.Tuple) error) (client.Report, error) {
	sm := r.metrics.Shards[shard]
	for attempt := 0; ; attempt++ {
		sm.Probes.Add(1)
		start := time.Now()
		c := r.pools[shard].get()
		rows := 0
		rep, err := c.ProbeParts(ctx, view, m.Epoch(), batch, r.probeBudget(ctx), func(t client.Tuple) error {
			rows++
			return emit(t)
		})
		r.pools[shard].put(c, err == nil || errors.Is(err, client.ErrRemote) || errors.Is(err, wire.ErrEpoch))
		sm.ProbeLatency.Observe(time.Since(start))
		sm.ProbeRows.Add(int64(rows))
		if err == nil {
			r.noteOutcome(shard, outcomeProbe, time.Since(start), nil, trial)
			return rep, nil
		}
		if errors.Is(err, wire.ErrEpoch) && attempt == 0 && ctx.Err() == nil {
			if r.installOn(shard, m) {
				continue
			}
		}
		sm.ProbeFailures.Add(1)
		r.noteOutcome(shard, outcomeProbe, time.Since(start), err, trial)
		return rep, err
	}
}

// spawnRefill fans the query's uncached O3 tuples back to their bcp
// owners asynchronously — only tuples of bcps that delivered no
// partial in this query (served), because the owner never appends to a
// populated entry. Fire-and-forget by design: refill is free work, the
// shard side is idempotent at entry granularity, and the query's
// answer is already complete — so a lost refill costs a future cache
// miss, nothing else. A non-nil tr rides into the refill contexts so
// the shards' refill spans land in the router's stored trace — after
// the reply, which is why `pmvcli trace` reads the live trace rather
// than a snapshot. seq and ok are what r.gate.begin returned as the
// query's O3 began: a batch the gate refuses is dropped.
func (r *Router) spawnRefill(tr *obs.Trace, meta *viewMeta, tuples []value.Tuple, served map[string]struct{}, hotGen uint64, seq int64, ok bool) {
	select {
	case <-r.Closing():
		return
	default:
	}
	m := r.shardMap()
	condVals := make([]value.Value, len(meta.condPos))
	var keyBuf []byte
	groups := make(map[int][]value.Tuple)
	for _, t := range tuples {
		key := meta.bcpKey(t, condVals, &keyBuf)
		if r.hot != nil {
			// A refill candidate is a cache miss for a demanded key — the
			// capture that lets a newly hot key's entry be replicated
			// before any shard has it cached.
			r.hot.capture(meta, key, t, hotGen)
		}
		if _, ok := served[key]; ok {
			continue
		}
		owner := m.Owner(key)
		groups[owner] = append(groups[owner], t)
	}
	if !ok {
		return
	}
	for shard, batch := range groups {
		sm := r.metrics.Shards[shard]
		sm.RefillsSent.Add(1)
		r.refillWG.Add(1)
		go func(shard int, batch []value.Tuple) {
			defer r.refillWG.Done()
			if !r.gate.enter(seq) {
				return
			}
			defer r.gate.mu.RUnlock()
			ctx, cancel := context.WithTimeout(context.Background(), r.cfg.RefillTimeout)
			defer cancel()
			ctx = obs.WithTrace(ctx, tr)
			c := r.pools[shard].get()
			cached, err := c.Refill(ctx, meta.name, m.Epoch(), batch, r.probeBudget(ctx))
			r.pools[shard].put(c, err == nil || errors.Is(err, client.ErrRemote) || errors.Is(err, wire.ErrEpoch))
			r.noteOutcome(shard, outcomeRefill, 0, err, false)
			if err != nil {
				sm.RefillFailures.Add(1)
				if errors.Is(err, wire.ErrEpoch) {
					// This batch is lost (refill never retries), but
					// re-teaching the map saves the ones after it.
					r.installOn(shard, m)
				}
				return
			}
			sm.RefillTuples.Add(int64(cached))
		}(shard, batch)
	}
}

// clientsPerShard caps each shard's idle connection pool.
const clientsPerShard = 4

// pool is a small free-list of self-healing clients for one shard.
// Clients that saw transport trouble are closed rather than pooled, so
// a session that died mid-stream never pollutes a later request.
type pool struct {
	addr string

	mu     sync.Mutex
	free   []*client.Client
	seq    int64
	closed bool

	dialTimeout time.Duration
}

func newPool(addr string, dialTimeout time.Duration) *pool {
	return &pool{addr: addr, dialTimeout: dialTimeout}
}

func (p *pool) get() *client.Client {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		c := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return c
	}
	p.seq++
	seq := p.seq
	p.mu.Unlock()
	return client.NewConfig(client.Config{
		Addr:        p.addr,
		DialTimeout: p.dialTimeout,
		MaxRetries:  2,
		BackoffBase: 20 * time.Millisecond,
		BackoffMax:  250 * time.Millisecond,
		Seed:        seq,
	})
}

// put returns a client to the pool when its last call ended healthy;
// otherwise (or when the pool is full or closed) the client is closed.
func (p *pool) put(c *client.Client, healthy bool) {
	if healthy {
		p.mu.Lock()
		if !p.closed && len(p.free) < clientsPerShard {
			p.free = append(p.free, c)
			p.mu.Unlock()
			return
		}
		p.mu.Unlock()
	}
	c.Close()
}

func (p *pool) close() {
	p.mu.Lock()
	free := p.free
	p.free, p.closed = nil, true
	p.mu.Unlock()
	for _, c := range free {
		c.Close()
	}
}
