package maint

import (
	"slices"
	"testing"

	"pmv/internal/wire"
)

// TestGatherTakesWhatIsQueued pins gather's rule on a plane with no
// worker: the requests already queued share the first one's batch up to
// BatchSize ops, the request that crosses the cap included; a larger
// backlog splits at the cap, and an empty queue yields the first
// request alone. SizeFlushes counts only the cuts that left requests
// queued.
func TestGatherTakesWhatIsQueued(t *testing.T) {
	p := &Plane{cfg: Config{BatchSize: 4}, queue: make(chan *request, 16)}
	req := func(n int) *request { return &request{ops: make([]wire.UpdateOp, n)} }
	sizes := func(batch []*request) []int {
		var s []int
		for _, r := range batch {
			s = append(s, len(r.ops))
		}
		return s
	}
	check := func(what string, batch []*request, want []int, sizeFlushes int64) {
		t.Helper()
		if got := sizes(batch); !slices.Equal(got, want) {
			t.Fatalf("%s: batch of request sizes %v, want %v", what, got, want)
		}
		if p.stats.SizeFlushes != sizeFlushes {
			t.Fatalf("%s: %d size flushes, want %d", what, p.stats.SizeFlushes, sizeFlushes)
		}
	}

	for _, n := range []int{2, 3, 1, 4, 1} {
		p.queue <- req(n)
	}
	// 1 + 2 + 3: the 3-op request crosses the cap and rides along;
	// three requests stay queued.
	check("backlog", p.gather(req(1)), []int{1, 2, 3}, 1)
	// The next batch starts at the queue's head: 1 + 4, with one
	// request still queued behind it.
	check("rest of backlog", p.gather(<-p.queue), []int{1, 4}, 2)
	// 1 op under the cap, queue now empty: the batch is what there is.
	check("tail", p.gather(<-p.queue), []int{1}, 2)
	check("empty queue", p.gather(req(1)), []int{1}, 2)

	// A first request at the cap takes nothing behind it.
	p.queue <- req(1)
	check("full first", p.gather(req(4)), []int{4}, 3)
	check("left behind", p.gather(<-p.queue), []int{1}, 3)
	// Crossing the cap with nothing queued is not a size flush.
	check("full first, empty queue", p.gather(req(5)), []int{5}, 3)
}
