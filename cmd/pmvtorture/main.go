// Command pmvtorture runs the torture harnesses across many seeds.
//
// -scenario names what to run:
//
//   - storage: a random DML + ExecutePartial workload through a
//     fault-injecting vfs, crashed at a random failpoint, reopened and
//     checked against an oracle plus the DESIGN.md invariants.
//     Durability mode alternates by seed (odd = fsync per statement).
//   - snap: fill→snapshot→reboot cycles with torn writes, sticky fsync
//     failures, read bit rot and crashes injected under the snapshot
//     file (see internal/torture/snapfault.go).
//   - a row of the chaos table (see internal/torture/chaos.go): real
//     pmvd shards behind fault-injecting proxies, optionally a router,
//     concurrent self-healing clients, fault events, and one version
//     window oracle. net is one shard alone; cluster adds a router and
//     shard kills; cluster-tail its tail-tolerance plane with gray-ramp
//     and flap events; cluster-hot its frequency plane with a hot row
//     overwritten mid-run; restart reboots shards from disk and
//     snapshots (warm must beat cold; corrupt and stale snapshots must
//     be refused); write runs a batched write plane per shard under
//     concurrent monotone writers.
//   - all: every one of the above in turn.
//
// Without -seeds each harness runs its CI seed count (make chaos); make
// torture passes a wide one.
//
// Usage:
//
//	pmvtorture [-scenario all] [-seeds N] [-start 0] [-v]
package main

import (
	"flag"
	"fmt"
	"os"

	"pmv/internal/torture"
)

// harness is one name -scenario accepts.
type harness struct {
	name  string
	seeds int // CI seed count
	run   func(seed int64) (string, error)
}

func harnesses() []harness {
	hs := []harness{
		{"storage", 3, func(seed int64) (string, error) {
			opts := torture.Options{Seed: seed, SyncEveryOp: seed%2 == 1}
			rep, err := torture.Run(opts)
			return fmt.Sprintf("storage seed=%d sync=%v crashed=%v acked=%d prefixK=%d replayed=%d repairs=%d",
				seed, opts.SyncEveryOp, rep.Crashed, rep.AckedOps, rep.PrefixK, rep.Recovered, rep.Repairs), err
		}},
		{"snap", 3, func(seed int64) (string, error) {
			rep, err := torture.RunSnapFault(torture.SnapFaultOptions{Seed: seed})
			return fmt.Sprintf("snap seed=%d cycles=%d warm=%d cold=%d write-errors=%d reasons=%v torn=%d syncfail=%d rot=%d crashes=%d",
				seed, rep.Cycles, rep.WarmBoots, rep.ColdBoots, rep.WriteErrors, rep.ColdReasons,
				rep.Faults.TornWrites, rep.Faults.SyncFailures, rep.Faults.CorruptReads, rep.Faults.Crashes), err
		}},
	}
	for _, sc := range torture.Scenarios {
		hs = append(hs, harness{sc.Name, sc.Seeds, func(seed int64) (string, error) {
			rep, err := torture.RunScenario(sc, seed)
			return rep.String(), err
		}})
	}
	return hs
}

func main() {
	name := flag.String("scenario", "all", "harness to run: storage, snap, a chaos scenario, or all")
	seeds := flag.Int("seeds", 0, "seeds per harness (0 = its CI seed count)")
	start := flag.Int64("start", 0, "first seed")
	verbose := flag.Bool("v", false, "print one line per seed")
	flag.Parse()

	var run []harness
	for _, h := range harnesses() {
		if *name == "all" || *name == h.name {
			run = append(run, h)
		}
	}
	if len(run) == 0 {
		fmt.Fprintf(os.Stderr, "pmvtorture: no harness %q\n", *name)
		os.Exit(2)
	}
	failed := 0
	for _, h := range run {
		n, hfailed := h.seeds, 0
		if *seeds > 0 {
			n = *seeds
		}
		for seed := *start; seed < *start+int64(n); seed++ {
			line, err := h.run(seed)
			switch {
			case err != nil:
				hfailed++
				fmt.Fprintf(os.Stderr, "FAIL %s seed=%d: %v\n", h.name, seed, err)
			case *verbose:
				fmt.Println("ok   " + line)
			}
		}
		fmt.Printf("pmvtorture -scenario %s: %d seeds, %d failed\n", h.name, n, hfailed)
		failed += hfailed
	}
	if failed > 0 {
		os.Exit(1)
	}
}
