// health.go is the router's per-shard health model, the first layer of
// the tail-tolerance plane: every probe, exec, refill, and heartbeat
// outcome feeds a latency digest (EWMA + EWMA absolute deviation) and
// a phi-accrual-style failure detector per shard. The digest drives
// the hedge delay (hedge.go) and the latency trip condition of the
// circuit breaker (breaker.go); phi and the consecutive-failure count
// drive the availability trips. Everything here is atomics — health is
// updated from every probe goroutine concurrently and read on every
// scatter, so it must never contend or allocate.
//
// The whole plane hangs off Router.tt, which is nil unless
// Config.TailTolerance is set: a disabled router takes none of these
// paths, allocates nothing for them, and emits byte-identical wire
// traffic to a pre-v4 router (pinned by TestTailDisabledZeroAlloc).
package cluster

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"time"

	"pmv/internal/wire"
)

// Breaker trip thresholds.
const (
	// breakerFailThreshold trips a breaker after this many consecutive
	// failures.
	breakerFailThreshold = 3
	// breakerPhi trips a breaker when the phi-accrual suspicion level
	// reaches it — the silence is ~10⁸× longer than normal.
	breakerPhi = 8.0
	// breakerLatencyFactor trips a breaker whose shard's latency EWMA
	// exceeds this multiple of the fleet's median EWMA, but only above
	// breakerLatencyFloor — the gray-shard trip that decouples routed
	// p99 from a slow-but-alive shard.
	breakerLatencyFactor = 6.0
	breakerLatencyFloor  = 5 * time.Millisecond
)

// outcomeKind says which protocol step produced an observation.
// Latency feeds the EWMA digest only for probes and heartbeats — exec
// latency is dominated by query cost, not shard sickness, and refill
// is fire-and-forget — but success/failure feeds the failure detector
// from all four.
type outcomeKind int

const (
	outcomeProbe outcomeKind = iota
	outcomeExec
	outcomeRefill
	outcomeBeat
)

// ewmaAlpha weights new latency samples; 0.2 reacts to a graying
// shard within a handful of probes without flapping on one outlier.
const ewmaAlpha = 0.2

// shardHealth is one shard's live health model.
type shardHealth struct {
	ewmaNs      atomic.Int64 // EWMA latency (probe + heartbeat round trips)
	devNs       atomic.Int64 // EWMA absolute deviation of the same
	lastOKNs    atomic.Int64 // wall-clock ns of the last success (0 = never)
	intervalNs  atomic.Int64 // EWMA interval between successes
	consecFails atomic.Int64 // consecutive failures across all kinds
	samples     atomic.Int64 // successful latency samples absorbed
}

// observe absorbs one outcome. The EWMA read-modify-write is lock-free
// and deliberately tolerant of lost updates under contention: the
// digest is a smoothing filter, not an accounting ledger.
func (h *shardHealth) observe(kind outcomeKind, d time.Duration, ok bool, now time.Time) {
	if !ok {
		h.consecFails.Add(1)
		return
	}
	h.consecFails.Store(0)
	nowNs := now.UnixNano()
	if last := h.lastOKNs.Load(); last > 0 {
		gap := nowNs - last
		if gap > 0 {
			h.intervalNs.Store(blend(h.intervalNs.Load(), gap))
		}
	}
	h.lastOKNs.Store(nowNs)
	if kind != outcomeProbe && kind != outcomeBeat {
		return
	}
	sample := int64(d)
	old := h.ewmaNs.Load()
	if old == 0 {
		h.ewmaNs.Store(sample)
	} else {
		h.ewmaNs.Store(blend(old, sample))
		dev := sample - old
		if dev < 0 {
			dev = -dev
		}
		h.devNs.Store(blend(h.devNs.Load(), dev))
	}
	h.samples.Add(1)
}

// blend is one EWMA step in integer nanoseconds.
func blend(old, sample int64) int64 {
	if old == 0 {
		return sample
	}
	return old + int64(ewmaAlpha*float64(sample-old))
}

// phi is the phi-accrual suspicion level at now: how many orders of
// magnitude less likely than "normal" the current silence is, assuming
// exponentially distributed success arrivals with the observed mean
// interval. 0 while healthy, climbing without bound during silence.
func (h *shardHealth) phi(now time.Time) float64 {
	last := h.lastOKNs.Load()
	if last == 0 {
		return 0 // never heard from: bootstrapping, not suspicion
	}
	mean := h.intervalNs.Load()
	if mean <= 0 {
		return 0
	}
	elapsed := now.UnixNano() - last
	if elapsed <= 0 {
		return 0
	}
	// P(silence >= elapsed) = exp(-elapsed/mean); phi = -log10 of it.
	return float64(elapsed) / float64(mean) * math.Log10E
}

// tailTolerance bundles the whole plane: health models, breakers, and
// the hedge token budget. Owned by Router, nil when disabled.
type tailTolerance struct {
	cfg      *Config
	health   []*shardHealth
	breakers []*breaker
	hedge    *hedgeBudget // nil when hedging is off
}

func newTailTolerance(cfg *Config, nShards int) *tailTolerance {
	tt := &tailTolerance{
		cfg:      cfg,
		health:   make([]*shardHealth, nShards),
		breakers: make([]*breaker, nShards),
	}
	for i := 0; i < nShards; i++ {
		tt.health[i] = &shardHealth{}
		tt.breakers[i] = newBreaker(cfg.BreakerCooldown, cfg.BreakerMaxCooldown, int64(i+1))
	}
	if cfg.Hedge {
		tt.hedge = newHedgeBudget(hedgeRate, hedgeBurst)
	}
	return tt
}

// latencySick reports whether shard's latency digest exceeds the trip
// threshold: above an absolute floor AND above breakerLatencyFactor ×
// the fleet's median EWMA. The relative test is what distinguishes a
// gray shard from a uniformly slow (but healthy) cluster.
func (tt *tailTolerance) latencySick(shard int) bool {
	own := tt.health[shard].ewmaNs.Load()
	if own < int64(breakerLatencyFloor) {
		return false
	}
	med := tt.fleetMedianEwma()
	if med <= 0 {
		return false
	}
	return float64(own) > breakerLatencyFactor*float64(med)
}

// fleetMedianEwma is the median of the per-shard latency digests,
// ignoring shards with no samples yet. Small fixed-size selection: the
// shard count is a config-time constant measured in ones or tens.
func (tt *tailTolerance) fleetMedianEwma() int64 {
	var vals [64]int64
	n := 0
	for _, h := range tt.health {
		if v := h.ewmaNs.Load(); v > 0 && n < len(vals) {
			vals[n] = v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	// Insertion sort; n is tiny.
	for i := 1; i < n; i++ {
		for j := i; j > 0 && vals[j] < vals[j-1]; j-- {
			vals[j], vals[j-1] = vals[j-1], vals[j]
		}
	}
	return vals[n/2]
}

// sick reports whether any trip condition currently holds for shard.
func (tt *tailTolerance) sick(shard int, now time.Time) bool {
	h := tt.health[shard]
	if h.consecFails.Load() >= breakerFailThreshold {
		return true
	}
	if h.phi(now) >= breakerPhi {
		return true
	}
	return tt.latencySick(shard)
}

// noteOutcome is the single funnel every shard interaction reports
// through: it updates the health model and runs the breaker state
// machine (trip on a sick closed shard, resolve a half-open trial).
func (r *Router) noteOutcome(shard int, kind outcomeKind, d time.Duration, err error, trial bool) {
	tt := r.tt
	if tt == nil {
		return
	}
	// Epoch mismatches are protocol signals (the shard needs the map
	// re-taught), not sickness; they neither fail nor heal the model.
	// A trial must still be resolved or the breaker would stay half-open
	// forever — an epoch answer is a live, prompt shard, so the trial
	// settles on latency alone.
	if errors.Is(err, wire.ErrEpoch) {
		if trial {
			tt.breakers[shard].resolveTrial(!tt.latencySick(shard), time.Now())
		}
		return
	}
	now := time.Now()
	ok := err == nil
	tt.health[shard].observe(kind, d, ok, now)
	br := tt.breakers[shard]
	if trial {
		healthy := ok && !tt.latencySick(shard)
		if br.resolveTrial(healthy, now) && !healthy {
			r.metrics.Shards[shard].BreakerTrips.Add(1)
		}
		return
	}
	if br.state.Load() == int32(bkClosed) && tt.sick(shard, now) {
		if br.trip(now) {
			r.metrics.Shards[shard].BreakerTrips.Add(1)
		}
	}
}

// allowProbe asks shard's breaker whether a probe may be sent. The
// second result marks the probe as the half-open trial; its outcome
// decides the breaker's next state. Always (true, false) when the
// plane is disabled — one nil check, no allocation.
func (r *Router) allowProbe(shard int) (admit, trial bool) {
	if r.tt == nil {
		return true, false
	}
	admit, trial = r.tt.breakers[shard].allow(time.Now())
	if !admit {
		r.metrics.Shards[shard].BreakerSkips.Add(1)
	} else if trial {
		r.metrics.Shards[shard].TrialProbes.Add(1)
	}
	return admit, trial
}

// breakerOpen reports whether shard's breaker currently refuses
// traffic, for O3 failover ordering (open shards are tried last, never
// skipped — O3 is the correctness path).
func (r *Router) breakerOpen(shard int) bool {
	if r.tt == nil {
		return false
	}
	return r.tt.breakers[shard].state.Load() == int32(bkOpen)
}

// execOrder is the O3 failover order: round-robin from firstShard, but
// with open-breaker shards moved to the back (still tried — O3 is the
// correctness path and a breaker is only a tail heuristic — just last,
// so the common case never waits out a known-sick shard's timeout).
// Returns nil when the plane is disabled; the caller's modular
// round-robin stands and nothing allocates.
func (r *Router) execOrder(firstShard, nShards int) []int {
	if r.tt == nil {
		return nil
	}
	order := make([]int, 0, nShards)
	var open []int
	for attempt := 0; attempt < nShards; attempt++ {
		shard := (firstShard + attempt) % nShards
		if r.breakerOpen(shard) {
			open = append(open, shard)
			continue
		}
		order = append(order, shard)
	}
	return append(order, open...)
}

// probeBudget is the remaining deadline budget to ride on a probe or
// refill request: zero (absent on the wire) when the plane is disabled
// or the context is unbounded.
func (r *Router) probeBudget(ctx context.Context) time.Duration {
	if r.tt == nil {
		return 0
	}
	dl, ok := ctx.Deadline()
	if !ok {
		return 0
	}
	if d := time.Until(dl); d > 0 {
		return d
	}
	return time.Nanosecond // already expired: tell the shard anyway
}

// resetBreakers closes every breaker after a shard-map install: the
// operator (or the epoch protocol) re-taught the cluster, so suspicion
// accrued under the old map is stale. Latency digests survive — if a
// shard is still gray it will re-trip within a few probes.
func (tt *tailTolerance) resetBreakers() {
	for i, br := range tt.breakers {
		br.reset()
		tt.health[i].consecFails.Store(0)
	}
}

// healthWire renders shard's live health for the fleet view; nil when
// the plane is disabled.
func (r *Router) healthWire(shard int) *wire.ShardHealth {
	tt := r.tt
	if tt == nil {
		return nil
	}
	h := tt.health[shard]
	sm := r.metrics.Shards[shard]
	return &wire.ShardHealth{
		EwmaMs:      float64(h.ewmaNs.Load()) / 1e6,
		DevMs:       float64(h.devNs.Load()) / 1e6,
		Phi:         h.phi(time.Now()),
		ConsecFails: h.consecFails.Load(),
		Breaker:     breakerState(tt.breakers[shard].state.Load()).String(),
		Beats:       sm.Beats.Load(),
		BeatFails:   sm.BeatFailures.Load(),
		HedgesSent:  sm.HedgesSent.Load(),
		HedgeWins:   sm.HedgeWins.Load(),
		Trips:       sm.BreakerTrips.Load(),
		Skips:       sm.BreakerSkips.Load(),
	}
}

// heartbeatLoop pings every shard each HeartbeatInterval so the
// failure detector has a signal on an idle cluster and sick shards are
// re-scored (and recovered shards re-admitted) without waiting for
// query traffic. One goroutine per tick per shard: a blackholed shard
// must not stall the others' beats.
func (r *Router) heartbeatLoop() {
	defer r.bgWG.Done()
	t := time.NewTicker(r.cfg.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-r.Closing():
			return
		case <-t.C:
		}
		for shard := range r.pools {
			r.bgWG.Add(1)
			go func(shard int) {
				defer r.bgWG.Done()
				r.heartbeat(shard)
			}(shard)
		}
	}
}

// heartbeat sends one ping. A beat can double as the breaker's
// half-open trial: when a shard's cooldown has elapsed, the beat's
// outcome (including its latency, which a gray shard cannot hide)
// decides recovery — so live queries never pay for trial traffic
// against a still-sick shard.
func (r *Router) heartbeat(shard int) {
	tt := r.tt
	sm := r.metrics.Shards[shard]
	// The beat's job is to MEASURE latency, so its timeout must be far
	// above any latency worth measuring: a gray shard should fail the
	// relative-latency test, not the timeout. Capping at the interval
	// would misread every RTT above it as down — and false-trip healthy
	// shards on scheduler hiccups when the interval is aggressive.
	timeout := 4 * r.cfg.HeartbeatInterval
	if timeout < time.Second {
		timeout = time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	_, trial := tt.breakers[shard].allow(time.Now())
	sm.Beats.Add(1)
	c := r.pools[shard].get()
	rtt, epoch, err := c.Ping(ctx)
	r.pools[shard].put(c, err == nil)
	if err != nil {
		sm.BeatFailures.Add(1)
	}
	r.noteOutcome(shard, outcomeBeat, rtt, err, trial)
	if err == nil {
		m := r.shardMap()
		if epoch < m.Epoch() {
			// The shard answered with a stale (or zero: rebooted) epoch:
			// re-teach the map now instead of waiting for the next probe
			// to fail typed.
			r.installOn(shard, m)
		}
	}
}
