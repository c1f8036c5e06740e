package torture

import (
	"strings"
	"testing"
)

// One seed of four chaos scenarios rides in the suite, sized to keep
// each to seconds; cmd/pmvtorture runs every row at its CI size and
// the wide sweep.
func smoke(t *testing.T, name string, seed int64, resize func(*Scenario)) {
	t.Helper()
	for _, sc := range Scenarios {
		if sc.Name != name {
			continue
		}
		if resize != nil {
			resize(&sc)
		}
		rep, err := RunScenario(sc, seed)
		if err != nil {
			t.Fatal(err)
		}
		t.Log(rep)
		return
	}
	t.Fatalf("no scenario %q", name)
}

func TestNetChaosSmoke(t *testing.T) {
	smoke(t, "net", 1, func(sc *Scenario) { sc.readers, sc.queries = 4, 25 })
}

// Hedged probes race duplicate row streams while shards gray-ramp and
// flap; the oracle and the DS audit must hold.
func TestTailChaosSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster chaos cycle is several seconds")
	}
	smoke(t, "cluster-tail", 7, nil)
}

// The restart row's check asserts the warm reboots beat cold ones and
// that corrupt and stale snapshots are refused.
func TestRestartChaosSmoke(t *testing.T) {
	smoke(t, "restart", 1, nil)
}

// Sized down; the events start at once and the drain and sweep always
// run.
func TestWriteChaosSmoke(t *testing.T) {
	smoke(t, "write", 1, func(sc *Scenario) {
		sc.writers, sc.writes, sc.readers, sc.queries = 2, 15, 2, 15
	})
}

func TestOracle(t *testing.T) {
	// Pids 0 and 8 are static; pid 16 has versions 3..5 in flight.
	wins := map[int64]window{0: {}, 8: {}, 16: {floor: 3, ceil: 5}}
	v := func(pid, seq int64) int64 { return discountOf(pid, seq) }
	all := func(seq16 ...int64) map[int64][]int64 {
		got := map[int64][]int64{0: {v(0, 0)}, 8: {v(8, 0)}}
		for _, s := range seq16 {
			got[16] = append(got[16], v(16, s))
		}
		return got
	}
	for _, tc := range []struct {
		name  string
		got   map[int64][]int64
		clean bool
		want  string // substring of the violation; "" = accepted
	}{
		{"clean exact", all(4), true, ""},
		{"clean at floor and ceiling", all(5), true, ""},
		{"static row twice (duplicate fill)", map[int64][]int64{0: {v(0, 0), v(0, 0)}}, false, "twice"},
		{"static row twice, clean", map[int64][]int64{0: {v(0, 0), v(0, 0)}, 8: {v(8, 0)}, 16: {v(16, 4)}}, true, "2 times"},
		{"fabricated pid", map[int64][]int64{1: {v(1, 0)}}, false, "fabricated"},
		{"version above ceiling", map[int64][]int64{16: {v(16, 6)}}, false, "never written"},
		{"value never written", map[int64][]int64{0: {v(0, 0) + 1}}, false, "never written"},
		{"clean read below floor", all(2), true, "STALE"},
		{"clean read missing a pid", map[int64][]int64{0: {v(0, 0)}, 16: {v(16, 4)}}, true, "2 of 3"},
		{"non-clean same version twice", all(4, 4), false, "twice"},
		{"non-clean three versions", all(3, 4, 5), false, "3 times"},
		{"non-clean stale then fresh", all(2, 5), false, ""},
		{"non-clean subset", map[int64][]int64{16: {v(16, 0)}}, false, ""},
		{"non-clean empty", nil, false, ""},
		{"clean two versions", all(4, 5), true, "2 times"},
	} {
		err := checkRead(wins, tc.got, tc.clean)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: got %v, want a violation naming %q", tc.name, err, tc.want)
		}
	}
}
