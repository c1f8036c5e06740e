package cluster

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"pmv/internal/value"
)

func TestHedgeBudgetCapsAmplification(t *testing.T) {
	h := newHedgeBudget(0.05, 4)
	// The bucket starts full: 4 hedges fire, the 5th is refused.
	for i := 0; i < 4; i++ {
		if !h.tryTake() {
			t.Fatalf("hedge %d refused with a full bucket", i)
		}
	}
	if h.tryTake() {
		t.Fatal("hedge granted from an empty bucket")
	}
	// 20 primaries at 5% earn exactly one more token.
	for i := 0; i < 20; i++ {
		h.earn()
	}
	if !h.tryTake() {
		t.Fatal("earned token not granted")
	}
	if h.tryTake() {
		t.Fatal("second hedge granted from one earned token")
	}
	// Earning never overflows the burst cap.
	for i := 0; i < 10000; i++ {
		h.earn()
	}
	for i := 0; i < 4; i++ {
		if !h.tryTake() {
			t.Fatalf("token %d missing after refill", i)
		}
	}
	if h.tryTake() {
		t.Fatal("bucket overflowed its burst cap")
	}
}

func TestHedgeDelayAdaptsAndClamps(t *testing.T) {
	cfg := tailConfig(1)
	tt := newTailTolerance(cfg, 1)
	// No samples: hedge waits the maximum (hedging blind wastes tokens).
	if d := tt.hedgeDelay(0); d != cfg.HedgeMaxDelay {
		t.Fatalf("blind hedge delay = %v, want max %v", d, cfg.HedgeMaxDelay)
	}
	now := time.Now()
	for i := 0; i < 50; i++ {
		tt.health[0].observe(outcomeProbe, 5*time.Millisecond, true, now)
	}
	// Steady 5ms latency, near-zero deviation: delay ~= ewma + 3*dev.
	if d := tt.hedgeDelay(0); d < hedgeMinDelay || d > 10*time.Millisecond {
		t.Fatalf("adaptive hedge delay = %v, want ~5ms", d)
	}
	// A very fast shard clamps up to the minimum.
	tt2 := newTailTolerance(cfg, 1)
	for i := 0; i < 50; i++ {
		tt2.health[0].observe(outcomeProbe, 10*time.Microsecond, true, now)
	}
	if d := tt2.hedgeDelay(0); d != hedgeMinDelay {
		t.Fatalf("fast-shard hedge delay = %v, want min %v", d, hedgeMinDelay)
	}
}

// TestHedgeArbiterMultisetMax drives the correctness core of hedging:
// whatever the interleaving of the two row streams, the merged stream
// is their multiset maximum — no duplicates when both arms answer in
// full, no losses when they answer different prefixes, and duplicate
// rows within one stream survive (DS needs every copy).
func TestHedgeArbiterMultisetMax(t *testing.T) {
	row := func(i int64) value.Tuple { return value.Tuple{value.Int(i)} }

	t.Run("both-answer-in-full", func(t *testing.T) {
		a := newHedgeArbiter()
		var got []int64
		emit := func(tp value.Tuple) error {
			got = append(got, tp[0].Int64())
			return nil
		}
		s0, s1 := a.source(0, emit), a.source(1, emit)
		for i := int64(0); i < 10; i++ {
			s0(row(i))
		}
		for i := int64(0); i < 10; i++ {
			s1(row(i))
		}
		if len(got) != 10 {
			t.Fatalf("merged %d rows from two full answers, want 10", len(got))
		}
	})

	t.Run("in-stream-duplicates-survive", func(t *testing.T) {
		a := newHedgeArbiter()
		n := 0
		emit := func(value.Tuple) error { n++; return nil }
		s0, s1 := a.source(0, emit), a.source(1, emit)
		// The cache can legitimately hold the same tuple twice (DS
		// consumes each copy); both copies must flow through.
		s0(row(7))
		s0(row(7))
		if n != 2 {
			t.Fatalf("same-stream duplicate suppressed: %d emitted, want 2", n)
		}
		// The hedge's copies of the same two rows are duplicates.
		s1(row(7))
		s1(row(7))
		if n != 2 {
			t.Fatalf("cross-stream duplicate emitted: %d, want 2", n)
		}
		// A third copy only the hedge saw is new information.
		s1(row(7))
		if n != 3 {
			t.Fatalf("multiset max lost a row: %d, want 3", n)
		}
	})

	t.Run("closed-race-drops-late-rows", func(t *testing.T) {
		a := newHedgeArbiter()
		n := 0
		emit := func(value.Tuple) error { n++; return nil }
		s0, s1 := a.source(0, emit), a.source(1, emit)
		s0(row(1))
		a.close()
		// The canceled loser probed a cache a refill has since grown:
		// its extra row must not reach a query already past O2.
		s1(row(1))
		s1(row(2))
		if n != 1 {
			t.Fatalf("rows forwarded after the race closed: %d emitted, want 1", n)
		}
	})

	t.Run("random-interleavings", func(t *testing.T) {
		rng := rand.New(rand.NewSource(42))
		for trial := 0; trial < 200; trial++ {
			a := newHedgeArbiter()
			counts := make(map[int64]int)
			var mu sync.Mutex
			emit := func(tp value.Tuple) error {
				mu.Lock()
				counts[tp[0].Int64()]++
				mu.Unlock()
				return nil
			}
			// Each arm delivers a random prefix of the same 8-row answer,
			// concurrently, in order within its stream.
			n0, n1 := rng.Intn(9), rng.Intn(9)
			var wg sync.WaitGroup
			for src, n := range map[int]int{0: n0, 1: n1} {
				wg.Add(1)
				go func(src, n int) {
					defer wg.Done()
					s := a.source(src, emit)
					for i := 0; i < n; i++ {
						s(row(int64(i)))
					}
				}(src, n)
			}
			wg.Wait()
			// The merge must be the elementwise max: rows 0..max(n0,n1)-1
			// exactly once each.
			want := n0
			if n1 > want {
				want = n1
			}
			for i := int64(0); i < int64(want); i++ {
				if counts[i] != 1 {
					t.Fatalf("trial %d (n0=%d n1=%d): row %d emitted %d times",
						trial, n0, n1, i, counts[i])
				}
			}
			if len(counts) != want {
				t.Fatalf("trial %d: %d distinct rows, want %d", trial, len(counts), want)
			}
		}
	})
}
