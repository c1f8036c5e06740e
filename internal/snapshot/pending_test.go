package snapshot_test

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"pmv"
	"pmv/internal/maint"
	"pmv/internal/snapshot"
	"pmv/internal/wire"
)

// TestPendingGateSkipsWrites pins the snapshot/maintenance interlock:
// while a batch is in flight, snapshot writes are refused with the
// typed error and counted, and resume once the gate clears.
func TestPendingGateSkipsWrites(t *testing.T) {
	db, _ := buildDB(t, t.TempDir(), pmv.ViewOptions{})
	defer db.Close()
	fillCache(t, db, 2)

	var pending atomic.Bool
	m, err := snapshot.NewManager(snapshot.Config{
		Dir: t.TempDir(), Source: db, Logf: t.Logf,
		Pending: func() bool { return pending.Load() },
	})
	if err != nil {
		t.Fatal(err)
	}

	if err := m.WriteNow(); err != nil {
		t.Fatalf("clear gate: %v", err)
	}
	pending.Store(true)
	if err := m.WriteNow(); !errors.Is(err, snapshot.ErrPending) {
		t.Fatalf("pending gate: got %v, want ErrPending", err)
	}
	pending.Store(false)
	if err := m.WriteNow(); err != nil {
		t.Fatalf("gate cleared: %v", err)
	}
	st := m.Stats()
	if st.PendingSkips != 1 || st.Writes != 2 {
		t.Fatalf("skips=%d writes=%d, want 1/2", st.PendingSkips, st.Writes)
	}
}

// TestSnapshotNeverWarmBootsAcrossPendingBatch pins the crash-window
// guarantee end to end: a snapshot cut before a ΔR batch landed must
// not warm-boot after the batch applied — the restart cold-starts and
// re-derives from base data, never serving invalidated entries.
func TestSnapshotNeverWarmBootsAcrossPendingBatch(t *testing.T) {
	dbDir, snapDir := t.TempDir(), t.TempDir()
	db, _ := buildDB(t, dbDir, pmv.ViewOptions{})
	fillCache(t, db, 2)

	p, err := maint.New(maint.Config{Source: db})
	if err != nil {
		t.Fatal(err)
	}
	m, err := snapshot.NewManager(snapshot.Config{
		Dir: snapDir, Source: db, Logf: t.Logf, Pending: p.Pending,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Pre-batch snapshot: warm cache, clean gate.
	if err := m.WriteNow(); err != nil {
		t.Fatal(err)
	}

	// A batch is queued but not yet maintained: holding the view's X
	// lock keeps the plane's worker from starting it. The background
	// writer ticking in this window must skip, not snapshot the cache
	// beside base data the batch is about to change.
	release, err := db.Views()[0].LockForMaintenance()
	if err != nil {
		t.Fatal(err)
	}
	applied := make(chan error, 1)
	go func() {
		_, err := p.Apply(context.Background(), []wire.UpdateOp{
			{Kind: wire.OpDelete, Rel: "sale", Col: "pid", Val: pmv.Int(9)},
		}, false)
		applied <- err
	}()
	for !p.Pending() {
		runtime.Gosched()
	}
	if err := m.WriteNow(); !errors.Is(err, snapshot.ErrPending) {
		t.Fatalf("write during pending batch: got %v, want ErrPending", err)
	}
	release()
	if err := <-applied; err != nil {
		t.Fatal(err)
	}
	p.Close()
	db.Close()

	// Crash here: disk holds the PRE-batch snapshot but the post-batch
	// WAL. The reboot must reject the snapshot as stale (data stamp
	// moved) and cold-start.
	db2, err := pmv.Open(dbDir, pmv.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	m2, err := snapshot.NewManager(snapshot.Config{Dir: snapDir, Source: db2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	res := m2.Load()
	if res.Warm {
		t.Fatalf("stale snapshot warm-booted across a pending batch: %+v", res)
	}
	if !strings.Contains(res.Reason, "stale") {
		t.Fatalf("cold start for the wrong reason: %q", res.Reason)
	}
	if m2.Stats().StaleRejects != 1 {
		t.Fatalf("stale reject not counted: %+v", m2.Stats())
	}
}
