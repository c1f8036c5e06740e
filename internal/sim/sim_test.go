package sim

import (
	"testing"

	"pmv/internal/cache"
)

// Small-scale configurations keep the suite fast; Figure-scale runs
// live in cmd/pmvbench.
func smallCfg(pol cache.PolicyKind) Config {
	return Config{
		BCPs: 50_000, Alpha: 1.07, H: 2, N: 2_000,
		Policy: pol, Warmup: 60_000, Measure: 60_000, Seed: 7,
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(smallCfg(cache.PolicyCLOCK))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smallCfg(cache.PolicyCLOCK))
	if err != nil {
		t.Fatal(err)
	}
	if a.HitProb != b.HitProb {
		t.Errorf("same seed, different results: %f vs %f", a.HitProb, b.HitProb)
	}
}

func TestHitProbabilityInRange(t *testing.T) {
	for _, pol := range []cache.PolicyKind{cache.PolicyCLOCK, cache.Policy2Q, cache.PolicyLRU} {
		r, err := Run(smallCfg(pol))
		if err != nil {
			t.Fatal(err)
		}
		if r.HitProb <= 0 || r.HitProb >= 1 {
			t.Errorf("%s: hit prob %f out of (0,1)", pol, r.HitProb)
		}
		if r.PartHitProb > r.HitProb {
			t.Errorf("%s: per-part hit %f exceeds per-query hit %f", pol, r.PartHitProb, r.HitProb)
		}
	}
}

func TestHitIncreasesWithH(t *testing.T) {
	prev := 0.0
	for _, h := range []int{1, 3, 5} {
		cfg := smallCfg(cache.PolicyCLOCK)
		cfg.H = h
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r.HitProb <= prev {
			t.Errorf("h=%d: hit %f not greater than h-1's %f", h, r.HitProb, prev)
		}
		prev = r.HitProb
	}
}

func TestHitIncreasesWithN(t *testing.T) {
	prev := 0.0
	for _, n := range []int{500, 2000, 8000} {
		cfg := smallCfg(cache.PolicyCLOCK)
		cfg.N = n
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r.HitProb <= prev {
			t.Errorf("N=%d: hit %f not greater than smaller N's %f", n, r.HitProb, prev)
		}
		prev = r.HitProb
	}
}

func TestHitIncreasesWithAlpha(t *testing.T) {
	lo := smallCfg(cache.PolicyCLOCK)
	lo.Alpha = 1.01
	hi := smallCfg(cache.PolicyCLOCK)
	hi.Alpha = 1.07
	rl, err := Run(lo)
	if err != nil {
		t.Fatal(err)
	}
	rh, err := Run(hi)
	if err != nil {
		t.Fatal(err)
	}
	if rh.HitProb <= rl.HitProb {
		t.Errorf("α=1.07 (%f) not above α=1.01 (%f)", rh.HitProb, rl.HitProb)
	}
}

func Test2QBeatsClockAtSteadyState(t *testing.T) {
	// The paper's consistent finding (Figures 6-7). Needs enough
	// warm-up for the admission filter to pay off.
	mk := func(pol cache.PolicyKind) Config {
		return Config{
			BCPs: 200_000, Alpha: 1.07, H: 1, N: 4_000,
			Policy: pol, Warmup: 400_000, Measure: 200_000, Seed: 7,
		}
	}
	rc, err := Run(mk(cache.PolicyCLOCK))
	if err != nil {
		t.Fatal(err)
	}
	rq, err := Run(mk(cache.Policy2Q))
	if err != nil {
		t.Fatal(err)
	}
	if rq.HitProb <= rc.HitProb {
		t.Errorf("2Q (%f) did not beat CLOCK (%f)", rq.HitProb, rc.HitProb)
	}
}

func TestUnknownPolicyRejected(t *testing.T) {
	cfg := smallCfg("bogus")
	if _, err := Run(cfg); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestDefaultsFilled(t *testing.T) {
	var cfg Config
	cfg.fill()
	if cfg.BCPs != 1_000_000 || cfg.N != 20_000 || cfg.Policy != cache.PolicyCLOCK {
		t.Errorf("defaults: %+v", cfg)
	}
}

func TestFigureSweepsShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweeps are slow")
	}
	rs, err := Figure6(50) // 20K queries per phase
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 20 {
		t.Fatalf("Figure6 cells = %d", len(rs))
	}
	// Within each (policy, alpha) series, hit probability must be
	// non-decreasing in h (up to small noise).
	for s := 0; s < 4; s++ {
		series := rs[s*5 : s*5+5]
		for i := 1; i < 5; i++ {
			if series[i].HitProb < series[i-1].HitProb-0.02 {
				t.Errorf("series %d not increasing at h=%d: %f -> %f",
					s, i+1, series[i-1].HitProb, series[i].HitProb)
			}
		}
	}
	rs7, err := Figure7(50)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs7) != 10 {
		t.Fatalf("Figure7 cells = %d", len(rs7))
	}
	for s := 0; s < 2; s++ {
		series := rs7[s*5 : s*5+5]
		for i := 1; i < 5; i++ {
			if series[i].HitProb < series[i-1].HitProb-0.02 {
				t.Errorf("Figure7 series %d not increasing at N step %d", s, i)
			}
		}
	}
}

// BenchmarkSimulationStep isolates the per-query cost of the
// Section 4.1 simulator's inner loop (a microbenchmark, not a figure).
func BenchmarkSimulationStep(b *testing.B) {
	for _, pol := range []cache.PolicyKind{cache.PolicyCLOCK, cache.Policy2Q} {
		b.Run(string(pol), func(b *testing.B) {
			_, err := Run(Config{
				Alpha: 1.07, H: 2, N: 5000, BCPs: 100000,
				Policy: pol, Warmup: b.N, Measure: 1, Seed: 3,
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}
