package cluster

import (
	"testing"
	"time"
)

func TestBreakerLifecycle(t *testing.T) {
	b := newBreaker(100*time.Millisecond, time.Second, 1)
	now := time.Now()

	if admit, trial := b.allow(now); !admit || trial {
		t.Fatalf("closed breaker: admit=%v trial=%v, want true,false", admit, trial)
	}
	if !b.trip(now) {
		t.Fatal("trip on a closed breaker reported no transition")
	}
	if b.trip(now) {
		t.Fatal("trip on an open breaker reported a transition")
	}
	if admit, _ := b.allow(now); admit {
		t.Fatal("open breaker admitted a probe inside its cooldown")
	}
	// Past the jittered wait the next caller is the half-open trial;
	// concurrent callers are refused while it flies.
	later := now.Add(200 * time.Millisecond)
	admit, trial := b.allow(later)
	if !admit || !trial {
		t.Fatalf("post-cooldown: admit=%v trial=%v, want the trial", admit, trial)
	}
	if admit, _ := b.allow(later); admit {
		t.Fatal("second probe admitted while a trial is in flight")
	}
	// A healthy trial closes and resets the cooldown escalation.
	if !b.resolveTrial(true, later) {
		t.Fatal("healthy trial resolution reported no transition")
	}
	if breakerState(b.state.Load()) != bkClosed {
		t.Fatalf("state after healthy trial = %v, want closed", breakerState(b.state.Load()))
	}
	if b.cooldown != b.base {
		t.Fatalf("cooldown after close = %v, want base %v", b.cooldown, b.base)
	}
}

func TestBreakerFailedTrialEscalates(t *testing.T) {
	b := newBreaker(100*time.Millisecond, time.Second, 2)
	now := time.Now()
	b.trip(now)
	first := b.wait
	if first < 50*time.Millisecond || first >= 100*time.Millisecond {
		t.Fatalf("first jittered wait = %v, want [base/2, base)", first)
	}
	now = now.Add(2 * first)
	if admit, trial := b.allow(now); !admit || !trial {
		t.Fatal("trial not admitted after the wait")
	}
	if !b.resolveTrial(false, now) {
		t.Fatal("failed trial resolution reported no transition")
	}
	if breakerState(b.state.Load()) != bkOpen {
		t.Fatal("failed trial did not reopen the breaker")
	}
	// Cooldown doubles per re-trip, capped at max.
	if b.wait < 100*time.Millisecond || b.wait >= 200*time.Millisecond {
		t.Fatalf("escalated wait = %v, want [100ms, 200ms)", b.wait)
	}
	for i := 0; i < 10; i++ {
		now = now.Add(time.Hour)
		b.allow(now)
		b.resolveTrial(false, now)
	}
	if b.cooldown > time.Second {
		t.Fatalf("cooldown escalated past max: %v", b.cooldown)
	}
}

// TestBreakerResetRacesTrial pins the epoch-install race: a shard-map
// re-teach resets the breaker while a half-open trial is in flight, and
// the trial's late resolution must be a no-op rather than re-tripping a
// breaker the install just cleared.
func TestBreakerResetRacesTrial(t *testing.T) {
	b := newBreaker(100*time.Millisecond, time.Second, 3)
	now := time.Now()
	b.trip(now)
	now = now.Add(200 * time.Millisecond)
	if admit, trial := b.allow(now); !admit || !trial {
		t.Fatal("trial not admitted")
	}
	b.reset() // epoch install while the trial flies
	if b.resolveTrial(false, now) {
		t.Fatal("stale trial resolution transitioned a reset breaker")
	}
	if breakerState(b.state.Load()) != bkClosed {
		t.Fatal("breaker not closed after reset")
	}
	if b.cooldown != b.base {
		t.Fatal("reset did not clear cooldown escalation")
	}
}

// TestBreakerCooldownNeverShrinks pins the escalation direction for an
// operator-supplied first cooldown above the default cap (pmvrouter
// -breaker-cooldown 20s): Config.fill lifts BreakerMaxCooldown to it,
// so consecutive re-trips never open for less time than the one before.
func TestBreakerCooldownNeverShrinks(t *testing.T) {
	cfg := &Config{Shards: []string{"127.0.0.1:0"}, TailTolerance: true, BreakerCooldown: 20 * time.Second}
	if err := cfg.fill(); err != nil {
		t.Fatal(err)
	}
	b := newTailTolerance(cfg, 1).breakers[0]
	now := time.Now()
	prev := b.cooldown // the (pre-jitter) period the next trip opens for
	b.trip(now)
	for i := 0; i < 5; i++ {
		if b.cooldown < prev {
			t.Fatalf("re-trip %d: cooldown shrank from %v to %v", i, prev, b.cooldown)
		}
		prev = b.cooldown
		now = now.Add(time.Hour)
		if admit, trial := b.allow(now); !admit || !trial {
			t.Fatalf("re-trip %d: trial not admitted after the wait", i)
		}
		b.resolveTrial(false, now)
	}
}
