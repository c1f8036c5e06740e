package cluster

import (
	"testing"
	"time"

	"pmv/internal/value"
)

// TestRefillDroppedAfterWrite: a refill whose query's O3 began before a
// routed write started, or while one was in flight, is never sent.
func TestRefillDroppedAfterWrite(t *testing.T) {
	r, err := NewRouter(Config{Shards: []string{"127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	meta := hotTestMeta(t)
	rows := []value.Tuple{{value.Int(1), value.Int(7)}}

	seq, ok := r.gate.begin()
	if !ok {
		t.Fatal("idle gate refused a query")
	}
	done := r.gate.write()
	if _, ok := r.gate.begin(); ok {
		t.Fatal("a query whose O3 began during a write may refill")
	}
	done()
	// The shard address refuses connections: a refill that got past
	// the gate would count a failure.
	r.spawnRefill(nil, meta, rows, nil, 0, seq, ok)
	r.refillWG.Wait()
	if sm := r.metrics.Shards[0]; sm.RefillsSent.Load() != 1 || sm.RefillFailures.Load() != 0 {
		t.Fatalf("sent=%d failures=%d, want the refill dropped before any dial",
			sm.RefillsSent.Load(), sm.RefillFailures.Load())
	}
	if seq, ok := r.gate.begin(); !ok || !r.gate.enter(seq) {
		t.Fatal("gate stayed shut after the write")
	}
	r.gate.mu.RUnlock()
}

// TestWriteWaitsForRefill: a write issued while a refill holds the gate
// dispatches only after that refill's reply released it.
func TestWriteWaitsForRefill(t *testing.T) {
	var g refillGate
	seq, _ := g.begin()
	if !g.enter(seq) {
		t.Fatal("idle gate refused a refill")
	}
	dispatched := make(chan struct{})
	go func() {
		g.write()()
		close(dispatched)
	}()
	select {
	case <-dispatched:
		t.Fatal("write dispatched while a refill held the gate")
	case <-time.After(50 * time.Millisecond):
	}
	g.mu.RUnlock() // the refill's reply
	select {
	case <-dispatched:
	case <-time.After(5 * time.Second):
		t.Fatal("write never dispatched after the refill's reply")
	}
	if g.enter(seq) {
		t.Fatal("a refill from before the write passed the gate")
	}
}
