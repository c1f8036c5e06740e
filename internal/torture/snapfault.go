// snapfault.go tortures the snapshot file itself: one database, one
// snapshot manager, and a vfs fault injector between the manager and
// the disk. Each cycle fills the cache, writes a snapshot under a
// scripted storage fault (torn write, sticky fsync failure, read-path
// bit rot, or a crash that drops everything unsynced), reboots the
// database cold, and loads whatever survived.
//
// The contract under test is the boot-time validation ladder: a boot
// is either warm with every admitted entry byte-identical to ground
// truth, or cold with a typed reason — never a panic, never a
// fabricated or duplicated tuple. Warm correctness is checked the
// strong way: every (category, store) pair is re-executed through
// Operation O3, whose DS multiset cross-checks cached partials against
// the base data, so a snapshot that resurrected a wrong tuple fails
// the cycle even if it decoded cleanly.
package torture

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"pmv"
	"pmv/internal/snapshot"
	"pmv/internal/vfs"
)

// SnapFaultOptions configures one snapshot-fault run.
type SnapFaultOptions struct {
	// Seed drives the fault schedule parameters.
	Seed int64
	// Cycles is how many fill→snapshot→reboot→load cycles to run
	// (default 10; scenarios rotate, so 5 covers each once).
	Cycles int
	// Dir is the working directory (default: fresh temp dir, removed
	// on success, kept on failure).
	Dir string
}

// SnapFaultReport summarizes one run.
type SnapFaultReport struct {
	Seed        int64
	Cycles      int
	WarmBoots   int
	ColdBoots   int
	WriteErrors int
	// ColdReasons tallies the typed cold-boot explanations observed.
	ColdReasons map[string]int
	// Faults aggregates what the injectors actually delivered.
	Faults vfs.FaultStats
}

// snapFaultScenario names the per-cycle storage fault scripts.
const (
	snapNone  = iota // control: no faults, boot must be warm
	snapTorn         // torn writes: random prefixes reach the page cache
	snapSync         // sticky fsync failure partway through the commit
	snapRot          // bit rot on the boot-time read path
	snapCrash        // crash mid-commit: unsynced writes are lost
	snapScenarios
)

// RunSnapFault executes one snapshot-fault cycle sequence. A nil error
// means every boot was warm-and-exact or cold-and-typed, and the
// control cycles all booted warm.
func RunSnapFault(opts SnapFaultOptions) (SnapFaultReport, error) {
	if opts.Cycles <= 0 {
		opts.Cycles = 10
	}
	cleanup := false
	if opts.Dir == "" {
		dir, err := os.MkdirTemp("", "pmv-snapfault")
		if err != nil {
			return SnapFaultReport{}, err
		}
		opts.Dir = dir
		cleanup = true
	}
	rep := SnapFaultReport{Seed: opts.Seed, Cycles: opts.Cycles, ColdReasons: make(map[string]int)}
	fail := func(format string, args ...any) (SnapFaultReport, error) {
		return rep, fmt.Errorf("snapfault seed %d: %s (dirs kept at %s)",
			opts.Seed, fmt.Sprintf(format, args...), opts.Dir)
	}

	dbDir := filepath.Join(opts.Dir, "db")
	snapDir := filepath.Join(opts.Dir, "snap")
	db, err := chaosDB(dbDir)
	if err != nil {
		return fail("setup: %v", err)
	}
	defer func() {
		if db != nil {
			db.Close()
		}
	}()

	// fill runs every (category, store) pair through ExecutePartial
	// rounds times so the cache holds the full working set under any
	// policy, and holds each answer to the oracle as a clean read, which
	// is how warm boots are proven correct.
	fill := func(rounds int, stage string) error {
		v, ok := db.ViewByName(chaosView)
		if !ok {
			return fmt.Errorf("%s: view missing after reopen", stage)
		}
		tpl := v.Config().Template
		for r := 0; r < rounds; r++ {
			for c := int64(0); c < chaosCategories; c++ {
				for st := int64(0); st < chaosStores; st++ {
					pair := [2]int64{c, st}
					q := pmv.NewQuery(tpl).In(0, pmv.Int(c)).In(1, pmv.Int(st)).Query()
					got := make(map[int64][]int64)
					if _, err := v.ExecutePartial(q, func(res pmv.Result) error {
						pid := res.Tuple[0].Int64()
						got[pid] = append(got[pid], res.Tuple[1].Int64())
						return nil
					}); err != nil {
						return fmt.Errorf("%s pair %v: %w", stage, pair, err)
					}
					wins := make(map[int64]window)
					for _, pid := range members(pair) {
						wins[pid] = window{}
					}
					if verr := checkRead(wins, got, true); verr != nil {
						return fmt.Errorf("%s pair %v: %w", stage, pair, verr)
					}
				}
			}
		}
		return nil
	}

	addStats := func(st vfs.FaultStats) {
		rep.Faults.Ops += st.Ops
		rep.Faults.Errors += st.Errors
		rep.Faults.TornWrites += st.TornWrites
		rep.Faults.SyncFailures += st.SyncFailures
		rep.Faults.CorruptReads += st.CorruptReads
		rep.Faults.Crashes += st.Crashes
	}

	for cycle := 0; cycle < opts.Cycles; cycle++ {
		scenario := cycle % snapScenarios
		seed := opts.Seed + int64(cycle)*7919

		if err := fill(2, fmt.Sprintf("cycle %d fill", cycle)); err != nil {
			return fail("%v", err)
		}

		// Write the snapshot through a faulted filesystem. The rules
		// target the snapshot file only: the EPOCH sidecar and the
		// database live outside the blast radius, exactly like a real
		// deployment with a dying snapshot volume.
		wrInj := vfs.NewInjector(seed)
		switch scenario {
		case snapTorn:
			wrInj.Add(vfs.Rule{Kind: vfs.FaultTornWrite, Op: vfs.OpWrite, Path: snapshot.FileName, Prob: 0.5, Sticky: true})
		case snapSync:
			wrInj.Add(vfs.Rule{Kind: vfs.FaultSyncFail, Op: vfs.OpSync, Path: snapshot.FileName, AfterOps: 1 + seed%2, Sticky: true})
		case snapCrash:
			wrInj.Add(vfs.Rule{Kind: vfs.FaultCrash, Op: vfs.OpWrite, Path: snapshot.FileName, AfterOps: 1 + seed%4})
		}
		mgr, err := snapshot.NewManager(snapshot.Config{
			Dir:    snapDir,
			Source: db,
			FS:     vfs.NewFaulty(vfs.OS(), wrInj),
		})
		if err != nil {
			return fail("cycle %d manager: %v", cycle, err)
		}
		if err := mgr.WriteNow(); err != nil {
			rep.WriteErrors++
			if scenario == snapNone || scenario == snapRot {
				return fail("cycle %d: snapshot write failed without a write fault armed: %v", cycle, err)
			}
		}
		// Close without a successful re-write must not mask the fault:
		// under a sticky fault it fails again, under a transient one it
		// may repair the snapshot — both are legitimate outcomes.
		if err := mgr.Close(); err != nil {
			rep.WriteErrors++
		}
		addStats(wrInj.Stats())

		// Reboot: the database closes for real, so the only warmth
		// available to the next incarnation is what the snapshot file
		// holds.
		if err := db.Close(); err != nil {
			db = nil
			return fail("cycle %d close: %v", cycle, err)
		}
		db = nil
		db, err = pmv.Open(dbDir, pmv.Options{})
		if err != nil {
			return fail("cycle %d reopen: %v", cycle, err)
		}

		rdInj := vfs.NewInjector(seed ^ 0x0ddf00d)
		if scenario == snapRot {
			rdInj.Add(vfs.Rule{Kind: vfs.FaultCorruptRead, Op: vfs.OpRead, Path: snapshot.FileName, Prob: 0.8, Sticky: true})
		}
		boot, err := snapshot.NewManager(snapshot.Config{
			Dir:    snapDir,
			Source: db,
			FS:     vfs.NewFaulty(vfs.OS(), rdInj),
		})
		if err != nil {
			return fail("cycle %d boot manager: %v", cycle, err)
		}
		res := boot.Load()
		addStats(rdInj.Stats())
		if err := boot.Close(); err != nil {
			// The final snapshot goes through the read-side injector's
			// filesystem; only the rot scenario leaves it armed, and
			// rot does not fault writes.
			return fail("cycle %d boot-side snapshot close: %v", cycle, err)
		}

		if res.Warm {
			rep.WarmBoots++
			if res.Rejected != 0 {
				return fail("cycle %d (scenario %d): warm boot rejected %d entries: %s", cycle, scenario, res.Rejected, res.Reason)
			}
			v, _ := db.ViewByName(chaosView)
			if err := v.CheckInvariants(); err != nil {
				return fail("cycle %d: invariants after warm admit: %v", cycle, err)
			}
		} else {
			rep.ColdBoots++
			rep.ColdReasons[coldReasonKind(res.Reason)]++
			if scenario == snapNone {
				return fail("cycle %d: control cycle booted cold: %s", cycle, res.Reason)
			}
			if kind := coldReasonKind(res.Reason); kind == "other" {
				return fail("cycle %d (scenario %d): cold boot reason is not typed: %q", cycle, scenario, res.Reason)
			}
			if v, _ := db.ViewByName(chaosView); v.Len() != 0 {
				return fail("cycle %d: cold boot still admitted %d entries", cycle, v.Len())
			}
		}

		// Warm or cold, the reopened database must answer every pair
		// exactly — O3's DS cross-check fails here if the snapshot
		// resurrected a tuple the base data does not back.
		if err := fill(1, fmt.Sprintf("cycle %d (scenario %d, warm=%v) verify", cycle, scenario, res.Warm)); err != nil {
			return fail("%v", err)
		}
	}

	if err := db.Close(); err != nil {
		db = nil
		return fail("final close: %v", err)
	}
	db = nil
	if cleanup {
		os.RemoveAll(opts.Dir)
	}
	return rep, nil
}

// coldReasonKind buckets a LoadResult reason into the typed categories
// the validation ladder is allowed to produce.
func coldReasonKind(reason string) string {
	switch {
	case reason == "no snapshot":
		return "absent"
	case strings.Contains(reason, "stale"):
		return "stale"
	case strings.Contains(reason, "corrupt"):
		return "corrupt"
	default:
		return "other"
	}
}
