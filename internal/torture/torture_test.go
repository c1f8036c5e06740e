package torture

import "testing"

// Three fixed seeds ride in the normal test suite as a CI-speed smoke
// of the crash-recovery harness; cmd/pmvtorture runs the wide sweep.
func TestTortureSmoke(t *testing.T) {
	for _, tc := range []struct {
		seed int64
		sync bool
	}{
		{seed: 1, sync: false},
		{seed: 2, sync: true},
		{seed: 3, sync: false},
	} {
		rep, err := Run(Options{Seed: tc.seed, SyncEveryOp: tc.sync, Ops: 150})
		if err != nil {
			t.Fatalf("seed %d (sync=%v): %v", tc.seed, tc.sync, err)
		}
		t.Logf("seed %d (sync=%v): crashed=%v acked=%d prefixK=%d replayed=%d repairs=%d faults=%+v",
			rep.Seed, tc.sync, rep.Crashed, rep.AckedOps, rep.PrefixK, rep.Recovered, rep.Repairs, rep.FaultyStats)
	}
}

// One seeded snapshot-fault cycle sequence rides in the suite;
// cmd/pmvtorture -scenario snap runs the wide sweep.
func TestSnapFaultSmoke(t *testing.T) {
	rep, err := RunSnapFault(SnapFaultOptions{Seed: 1, Cycles: 5})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("snapfault seed 1: %d cycles: warm=%d cold=%d write-errors=%d reasons=%v faults=%+v",
		rep.Cycles, rep.WarmBoots, rep.ColdBoots, rep.WriteErrors, rep.ColdReasons, rep.Faults)
	if rep.WarmBoots == 0 {
		t.Fatal("no cycle booted warm — the control scenario never ran")
	}
}
