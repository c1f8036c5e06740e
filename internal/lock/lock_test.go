package lock

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSharedCompatible(t *testing.T) {
	m := New()
	if err := m.Acquire(1, "r", Shared, time.Second); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(2, "r", Shared, time.Second); err != nil {
		t.Fatalf("S/S should be compatible: %v", err)
	}
	if !m.Holds(1, "r", Shared) || !m.Holds(2, "r", Shared) {
		t.Error("Holds misreports")
	}
	m.ReleaseAll(1)
	m.ReleaseAll(2)
}

func TestExclusiveBlocksShared(t *testing.T) {
	m := New()
	if err := m.Acquire(1, "r", Exclusive, time.Second); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(2, "r", Shared, 50*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Errorf("S under X: %v", err)
	}
	if err := m.Acquire(2, "r", Exclusive, 50*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Errorf("X under X: %v", err)
	}
	m.Release(1, "r")
	if err := m.Acquire(2, "r", Exclusive, time.Second); err != nil {
		t.Errorf("after release: %v", err)
	}
}

func TestSharedBlocksExclusive(t *testing.T) {
	m := New()
	m.Acquire(1, "r", Shared, time.Second)
	if err := m.Acquire(2, "r", Exclusive, 50*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Errorf("X under S: %v", err)
	}
	m.ReleaseAll(1)
}

func TestReentrantAndUpgrade(t *testing.T) {
	m := New()
	if err := m.Acquire(1, "r", Shared, time.Second); err != nil {
		t.Fatal(err)
	}
	// Re-acquiring the same mode is a no-op.
	if err := m.Acquire(1, "r", Shared, time.Second); err != nil {
		t.Fatal(err)
	}
	// Sole holder can upgrade S -> X.
	if err := m.Acquire(1, "r", Exclusive, time.Second); err != nil {
		t.Fatalf("upgrade: %v", err)
	}
	if !m.Holds(1, "r", Exclusive) {
		t.Error("upgrade not recorded")
	}
	// X holder re-acquiring S keeps X.
	if err := m.Acquire(1, "r", Shared, time.Second); err != nil {
		t.Fatal(err)
	}
	if !m.Holds(1, "r", Exclusive) {
		t.Error("downgrade happened implicitly")
	}
	m.ReleaseAll(1)
}

func TestUpgradeBlockedByOtherReader(t *testing.T) {
	m := New()
	m.Acquire(1, "r", Shared, time.Second)
	m.Acquire(2, "r", Shared, time.Second)
	if err := m.Acquire(1, "r", Exclusive, 50*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Errorf("upgrade with co-reader: %v", err)
	}
	m.ReleaseAll(2)
	if err := m.Acquire(1, "r", Exclusive, time.Second); err != nil {
		t.Errorf("upgrade after co-reader left: %v", err)
	}
	m.ReleaseAll(1)
}

func TestWaiterWakesOnRelease(t *testing.T) {
	m := New()
	m.Acquire(1, "r", Exclusive, time.Second)
	done := make(chan error, 1)
	go func() {
		done <- m.Acquire(2, "r", Exclusive, 2*time.Second)
	}()
	time.Sleep(20 * time.Millisecond)
	m.Release(1, "r")
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("waiter: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("waiter never woke")
	}
	m.ReleaseAll(2)
}

func TestReleaseAllWakesWaiters(t *testing.T) {
	m := New()
	m.Acquire(1, "a", Exclusive, time.Second)
	m.Acquire(1, "b", Exclusive, time.Second)
	var acquired atomic.Int32
	var wg sync.WaitGroup
	for i, res := range []string{"a", "b"} {
		wg.Add(1)
		go func(txn uint64, res string) {
			defer wg.Done()
			if err := m.Acquire(txn, res, Shared, 2*time.Second); err == nil {
				acquired.Add(1)
			}
		}(uint64(10+i), res)
	}
	time.Sleep(20 * time.Millisecond)
	m.ReleaseAll(1)
	wg.Wait()
	if acquired.Load() != 2 {
		t.Errorf("only %d waiters acquired", acquired.Load())
	}
}

func TestManyConcurrentReaders(t *testing.T) {
	m := New()
	var wg sync.WaitGroup
	errs := make(chan error, 50)
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(txn uint64) {
			defer wg.Done()
			if err := m.Acquire(txn, "hot", Shared, time.Second); err != nil {
				errs <- err
				return
			}
			time.Sleep(time.Millisecond)
			m.ReleaseAll(txn)
		}(uint64(i + 1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestWriterEventuallyProceeds(t *testing.T) {
	m := New()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Reader churn.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(txn uint64) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := m.Acquire(txn, "res", Shared, time.Second); err == nil {
					m.ReleaseAll(txn)
				}
			}
		}(uint64(100 + i))
	}
	err := m.Acquire(1, "res", Exclusive, 3*time.Second)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Errorf("writer starved: %v", err)
	}
	m.ReleaseAll(1)
}

func TestDefaultTimeoutApplied(t *testing.T) {
	m := New()
	m.DefaultTimeout = 30 * time.Millisecond
	m.Acquire(1, "r", Exclusive, 0)
	start := time.Now()
	err := m.Acquire(2, "r", Exclusive, 0)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("expected timeout, got %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("default timeout not applied: waited %v", d)
	}
	m.ReleaseAll(1)
}

func TestModeString(t *testing.T) {
	if Shared.String() != "S" || Exclusive.String() != "X" {
		t.Error("mode strings wrong")
	}
}

// TestUncontendedAcquireAllocatesNothing: once the manager has locked
// and released a resource, an uncontended Acquire/Release pair, shared
// or exclusive, arms no timer and allocates nothing.
func TestUncontendedAcquireAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates; allocation counts do not repeat")
	}
	m := New()
	for _, mode := range []Mode{Shared, Exclusive} {
		if n := testing.AllocsPerRun(100, func() {
			if err := m.Acquire(7, "pmv:v", mode, 0); err != nil {
				t.Fatal(err)
			}
			m.Release(7, "pmv:v")
		}); n != 0 {
			t.Errorf("%s: %v allocs per uncontended Acquire/Release, want 0", mode, n)
		}
	}
}
