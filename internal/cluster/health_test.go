package cluster

import (
	"context"
	"errors"
	"testing"
	"time"

	"pmv/internal/wire"
)

func tailConfig(nShards int) *Config {
	shards := make([]string, nShards)
	for i := range shards {
		shards[i] = "127.0.0.1:0"
	}
	cfg := &Config{Shards: shards, TailTolerance: true}
	if err := cfg.fill(); err != nil {
		panic(err)
	}
	return cfg
}

func TestHealthEwmaTracksLatency(t *testing.T) {
	h := &shardHealth{}
	now := time.Now()
	for i := 0; i < 50; i++ {
		h.observe(outcomeProbe, 10*time.Millisecond, true, now.Add(time.Duration(i)*time.Millisecond))
	}
	if got := time.Duration(h.ewmaNs.Load()); got != 10*time.Millisecond {
		t.Fatalf("steady EWMA = %v, want 10ms", got)
	}
	// A graying shard pulls the digest up within a handful of samples.
	for i := 0; i < 20; i++ {
		h.observe(outcomeProbe, 100*time.Millisecond, true, now)
	}
	if got := time.Duration(h.ewmaNs.Load()); got < 90*time.Millisecond {
		t.Fatalf("EWMA after graying = %v, want near 100ms", got)
	}
	// Exec outcomes feed the failure detector, never the digest.
	before := h.ewmaNs.Load()
	h.observe(outcomeExec, time.Hour, true, now)
	if h.ewmaNs.Load() != before {
		t.Fatal("exec latency leaked into the probe latency digest")
	}
}

func TestHealthConsecFailsAndPhi(t *testing.T) {
	h := &shardHealth{}
	now := time.Now()
	// Establish a steady success cadence so phi has a mean interval.
	for i := 0; i < 20; i++ {
		h.observe(outcomeBeat, time.Millisecond, true, now.Add(time.Duration(i)*100*time.Millisecond))
	}
	last := now.Add(19 * 100 * time.Millisecond)
	if phi := h.phi(last.Add(50 * time.Millisecond)); phi > 1 {
		t.Fatalf("phi during normal cadence = %v, want near 0", phi)
	}
	if phi := h.phi(last.Add(10 * time.Second)); phi < 8 {
		t.Fatalf("phi after 100 missed intervals = %v, want suspicious", phi)
	}
	h.observe(outcomeProbe, 0, false, last)
	h.observe(outcomeProbe, 0, false, last)
	if h.consecFails.Load() != 2 {
		t.Fatalf("consecFails = %d, want 2", h.consecFails.Load())
	}
	h.observe(outcomeProbe, time.Millisecond, true, last)
	if h.consecFails.Load() != 0 {
		t.Fatal("a success did not clear consecFails")
	}
}

func TestLatencySickIsRelative(t *testing.T) {
	cfg := tailConfig(3)
	tt := newTailTolerance(cfg, 3)
	now := time.Now()
	// A uniformly slow fleet is healthy: nobody is 6x the median.
	for shard := 0; shard < 3; shard++ {
		for i := 0; i < 30; i++ {
			tt.health[shard].observe(outcomeProbe, 50*time.Millisecond, true, now)
		}
	}
	for shard := 0; shard < 3; shard++ {
		if tt.latencySick(shard) {
			t.Fatalf("uniformly slow shard %d scored sick", shard)
		}
	}
	// One gray shard at 10x the others trips the relative test.
	for i := 0; i < 30; i++ {
		tt.health[0].observe(outcomeProbe, 500*time.Millisecond, true, now)
	}
	if !tt.latencySick(0) {
		t.Fatal("10x-gray shard not scored latency-sick")
	}
	if tt.latencySick(1) || tt.latencySick(2) {
		t.Fatal("healthy shard scored sick beside a gray one")
	}
	// Below the absolute floor nothing is sick, however skewed.
	tt2 := newTailTolerance(cfg, 3)
	for shard := 0; shard < 3; shard++ {
		d := 100 * time.Microsecond
		if shard == 0 {
			d = 2 * time.Millisecond // 20x, but under the 5ms floor
		}
		for i := 0; i < 30; i++ {
			tt2.health[shard].observe(outcomeProbe, d, true, now)
		}
	}
	if tt2.latencySick(0) {
		t.Fatal("sub-floor latency scored sick")
	}
}

func TestNoteOutcomeTripsAndResolves(t *testing.T) {
	cfg := tailConfig(2)
	r := &Router{cfg: *cfg, metrics: newMetrics([]string{"a", "b"})}
	r.tt = newTailTolerance(&r.cfg, 2)

	for i := 0; i < breakerFailThreshold; i++ {
		r.noteOutcome(0, outcomeProbe, 0, errors.New("boom"), false)
	}
	if breakerState(r.tt.breakers[0].state.Load()) != bkOpen {
		t.Fatal("consecutive failures did not trip the breaker")
	}
	if r.metrics.Shards[0].BreakerTrips.Load() != 1 {
		t.Fatalf("BreakerTrips = %d, want 1", r.metrics.Shards[0].BreakerTrips.Load())
	}
	if admit, _ := r.allowProbe(0); admit {
		t.Fatal("probe admitted through an open breaker")
	}
	if r.metrics.Shards[0].BreakerSkips.Load() != 1 {
		t.Fatal("skip not counted")
	}

	// The trial resolves the breaker: simulate the cooldown elapsing,
	// admit the trial, and heal it.
	r.tt.breakers[0].mu.Lock()
	r.tt.breakers[0].openedAt = time.Now().Add(-time.Hour)
	r.tt.breakers[0].mu.Unlock()
	admit, trial := r.allowProbe(0)
	if !admit || !trial {
		t.Fatal("trial not admitted after cooldown")
	}
	r.noteOutcome(0, outcomeProbe, time.Millisecond, nil, true)
	if breakerState(r.tt.breakers[0].state.Load()) != bkClosed {
		t.Fatal("healthy trial did not close the breaker")
	}
}

// TestNoteOutcomeEpochTrialResolves pins the stuck-trial case: a trial
// probe answered with an epoch error must still settle the half-open
// state (an epoch answer is a live, prompt shard), or the breaker
// would refuse traffic forever.
func TestNoteOutcomeEpochTrialResolves(t *testing.T) {
	cfg := tailConfig(1)
	r := &Router{cfg: *cfg, metrics: newMetrics([]string{"a"})}
	r.tt = newTailTolerance(&r.cfg, 1)
	br := r.tt.breakers[0]
	br.trip(time.Now())
	br.mu.Lock()
	br.openedAt = time.Now().Add(-time.Hour)
	br.mu.Unlock()
	if admit, trial := r.allowProbe(0); !admit || !trial {
		t.Fatal("trial not admitted")
	}
	r.noteOutcome(0, outcomeProbe, time.Millisecond, wire.ErrEpoch, true)
	if breakerState(br.state.Load()) != bkClosed {
		t.Fatal("epoch-answered trial left the breaker half-open")
	}
}

// TestTailDisabledZeroAlloc pins the acceptance bar: with the plane
// disabled (tt == nil) every touchpoint on the query path is one nil
// check — no allocation, no atomics.
func TestTailDisabledZeroAlloc(t *testing.T) {
	r := &Router{}
	ctx := context.Background()
	if n := testing.AllocsPerRun(100, func() {
		if admit, trial := r.allowProbe(0); !admit || trial {
			t.Fatal("disabled allowProbe refused")
		}
	}); n != 0 {
		t.Fatalf("allowProbe allocates %v per run when disabled", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		r.noteOutcome(0, outcomeProbe, time.Millisecond, nil, false)
	}); n != 0 {
		t.Fatalf("noteOutcome allocates %v per run when disabled", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if r.probeBudget(ctx) != 0 {
			t.Fatal("disabled probeBudget returned nonzero")
		}
	}); n != 0 {
		t.Fatalf("probeBudget allocates %v per run when disabled", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if r.execOrder(0, 3) != nil {
			t.Fatal("disabled execOrder returned an order")
		}
	}); n != 0 {
		t.Fatalf("execOrder allocates %v per run when disabled", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if r.breakerOpen(0) {
			t.Fatal("disabled breakerOpen reported open")
		}
	}); n != 0 {
		t.Fatalf("breakerOpen allocates %v per run when disabled", n)
	}
}

func TestExecOrderPushesOpenBreakersLast(t *testing.T) {
	cfg := tailConfig(4)
	r := &Router{cfg: *cfg, metrics: newMetrics([]string{"a", "b", "c", "d"})}
	r.tt = newTailTolerance(&r.cfg, 4)
	r.tt.breakers[1].trip(time.Now())
	order := r.execOrder(0, 4)
	want := []int{0, 2, 3, 1}
	for i, s := range want {
		if order[i] != s {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	// Every shard still appears: O3 never skips, only reorders.
	if len(order) != 4 {
		t.Fatalf("order dropped shards: %v", order)
	}
}
