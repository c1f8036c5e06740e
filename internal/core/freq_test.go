package core

import (
	"testing"
	"time"

	"pmv/internal/cache"
	"pmv/internal/freq"
)

// churnRun drives the 2Q churn scenario: warm one hot pair until it is
// cached, then flood the view with cold pairs seen exactly twice each —
// enough for 2Q's A1 promotion, below a popularity gate's threshold of
// three — and return the hot pair's report after the flood.
func churnRun(t *testing.T, gated bool) QueryReport {
	t.Helper()
	eng, tpl := testDB(t)
	loadFig1(t, eng, 24, 2, 1)
	v, err := NewView(eng, Config{Template: tpl, MaxEntries: 4, TuplesPerBCP: 4, Policy: cache.Policy2Q})
	if err != nil {
		t.Fatal(err)
	}
	if gated {
		// A window far longer than the test keeps the sketch from
		// rotating mid-flood; threshold 3 sits between the hot pair's
		// repeat count and the flood's two sightings per key.
		v.EnableFreq(freq.Config{Window: time.Hour, AdmitThreshold: 3})
	}
	pair := func(f, g int64) QueryReport {
		_, rep := runPartial(t, v, eqQuery(tpl, []int64{f}, []int64{g}))
		return rep
	}
	// Warm the hot pair past both 2Q's double sighting and the gate's
	// threshold; it ends cached in Am either way.
	for i := 0; i < 6; i++ {
		pair(0, 0)
	}
	if rep := pair(0, 0); !rep.Hit || rep.PartialTuples == 0 {
		t.Fatalf("hot pair never warmed (gated=%v): %+v", gated, rep)
	}
	for f := int64(1); f < 24; f++ {
		pair(f, 1)
		pair(f, 1)
	}
	return pair(0, 0)
}

// TestColdFloodChurnsUngated2Q pins the failure mode the admission gate
// exists for: without a popularity gate, a flood of keys each seen
// twice promotes straight through 2Q's A1 into Am and evicts the
// genuinely hot entry. If this test ever starts passing with a hit,
// the churn scenario has silently stopped exercising the ring.
func TestColdFloodChurnsUngated2Q(t *testing.T) {
	rep := churnRun(t, false)
	if rep.PartialTuples != 0 {
		t.Fatalf("cold flood no longer churns the hot entry; the gated test below is vacuous: %+v", rep)
	}
}

// TestGatedAdmissionSurvivesColdFlood is the same flood with the
// frequency plane on: twice-seen keys stay below the threshold, leave
// no footprint in either ring, and the hot entry survives.
func TestGatedAdmissionSurvivesColdFlood(t *testing.T) {
	rep := churnRun(t, true)
	if !rep.Hit || rep.PartialTuples == 0 {
		t.Fatalf("gated hot entry was evicted by a cold flood: %+v", rep)
	}
}

// TestFreqDisabledZeroAlloc pins the off-path cost contract: without
// EnableFreq every frequency-plane touchpoint on the probe and entry
// paths is a single nil check — no allocation.
func TestFreqDisabledZeroAlloc(t *testing.T) {
	eng, tpl := testDB(t)
	v, err := NewView(eng, Config{Template: tpl, MaxEntries: 4, TuplesPerBCP: 4})
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, proceed := v.probeFreqLocked("k"); !proceed {
			t.Fatal("disabled probeFreqLocked suppressed")
		}
	}); n != 0 {
		t.Fatalf("probeFreqLocked allocates %v per run when disabled", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if !v.admitGateLocked("k", 0, false) {
			t.Fatal("disabled admitGateLocked rejected")
		}
	}); n != 0 {
		t.Fatalf("admitGateLocked allocates %v per run when disabled", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		v.freqAddLocked("k")
		v.freqRemoveLocked("k")
	}); n != 0 {
		t.Fatalf("filter add/remove allocate %v per run when disabled", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, _, _, _, ok := v.FilterSnapshot(); ok {
			t.Fatal("disabled FilterSnapshot reported a filter")
		}
	}); n != 0 {
		t.Fatalf("FilterSnapshot allocates %v per run when disabled", n)
	}
}

// TestEnableFreqOnWarmView: a frequency plane attached to a view that
// already caches entries puts them in its presence filter, so their
// probes are not suppressed and the view keeps serving their partials.
func TestEnableFreqOnWarmView(t *testing.T) {
	eng, tpl := testDB(t)
	loadFig1(t, eng, 4, 4, 2)
	v, err := NewView(eng, Config{Template: tpl, MaxEntries: 100, TuplesPerBCP: 5})
	if err != nil {
		t.Fatal(err)
	}
	q := eqQuery(tpl, []int64{1}, []int64{2})
	want := runFull(t, eng, tpl, q)
	runPartial(t, v, q)

	v.EnableFreq(freq.Config{Window: time.Hour, AdmitThreshold: 1})
	got, rep := runPartial(t, v, q)
	if err := v.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if !equalStrings(got, want) || rep.PartialTuples != len(want) {
		t.Errorf("after EnableFreq: %d of %d rows served as partials, rows %v, want %v", rep.PartialTuples, len(want), got, want)
	}
	if n := v.Stats().ProbesSuppressed; n != 0 {
		t.Errorf("%d probes of a cached key suppressed", n)
	}
}
