package cluster

import (
	"testing"

	"pmv/internal/core"
	"pmv/internal/expr"
	"pmv/internal/value"
)

// hotTestMeta builds routing metadata for a one-relation view with a
// single equality condition, enough for the replica cache's key
// encoding without a live shard.
func hotTestMeta(t *testing.T) *viewMeta {
	t.Helper()
	tpl := &expr.Template{
		Name:      "v",
		Relations: []string{"r"},
		Select:    []expr.ColumnRef{{Rel: "r", Col: "x"}},
		Conds: []expr.CondTemplate{
			{Col: expr.ColumnRef{Rel: "r", Col: "f"}, Form: expr.EqualityForm},
		},
	}
	coder, err := core.NewBCPCoder(tpl, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, condPos := core.SelectPlusLayout(tpl)
	return &viewMeta{name: "v", tpl: tpl, coder: coder, nUserCols: 1, condPos: condPos}
}

// track offers key until the view's top-k tracks it.
func track(h *hotPlane, view, key string) {
	h.mu.Lock()
	h.viewLocked(view).topk.Offer(key)
	h.mu.Unlock()
}

func replicaTuples(h *hotPlane, view, key string) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	rep := h.viewLocked(view).replicas[key]
	if rep == nil {
		return 0
	}
	return len(rep.tuples)
}

// TestHotCaptureGenerationDiscardsStale pins the capture-ordering
// guard: a tuple snapshotted under an older invalidation generation —
// a probe that raced a write — must never repopulate the replica cache
// the write emptied.
func TestHotCaptureGenerationDiscardsStale(t *testing.T) {
	meta := hotTestMeta(t)
	h := newHotPlane(&Router{cfg: Config{HotK: 4}})
	tup := value.Tuple{value.Int(10), value.Int(7)} // Ls′: select x, cond f
	key := meta.coder.KeyFromCondValues([]value.Value{tup[meta.condPos[0]]})
	track(h, "v", key)

	gen := h.viewGen("v")
	h.capture(meta, key, tup, gen)
	if n := replicaTuples(h, "v", key); n != 1 {
		t.Fatalf("fresh capture cached %d tuples, want 1", n)
	}

	// A write lands: replicas drop, the generation moves on.
	h.invalidate(map[string][][]byte{"v": {[]byte(key)}}, nil)
	if n := replicaTuples(h, "v", key); n != 0 {
		t.Fatalf("invalidate left %d replica tuples", n)
	}
	h.capture(meta, key, tup, gen)
	if n := replicaTuples(h, "v", key); n != 0 {
		t.Fatal("stale-generation capture repopulated the dropped replica")
	}

	// A capture under the fresh generation is ordinary warm-up.
	h.capture(meta, key, tup, h.viewGen("v"))
	if n := replicaTuples(h, "v", key); n != 1 {
		t.Fatalf("fresh-generation capture cached %d tuples, want 1", n)
	}
}

// TestHotRepairDropsQueryReplicas pins the self-healing reaction to a
// failed duplicate-multiset audit: the query's replicas are dropped and
// the generation bumped, so in-flight captures cannot resurrect the
// suspect data.
func TestHotRepairDropsQueryReplicas(t *testing.T) {
	meta := hotTestMeta(t)
	h := newHotPlane(&Router{cfg: Config{HotK: 4}})
	tup := value.Tuple{value.Int(10), value.Int(7)}
	key := meta.coder.KeyFromCondValues([]value.Value{tup[meta.condPos[0]]})
	track(h, "v", key)

	gen := h.viewGen("v")
	h.capture(meta, key, tup, gen)
	h.repair(meta, []core.ConditionPart{{BCPKey: key}})
	if n := replicaTuples(h, "v", key); n != 0 {
		t.Fatal("repair left the suspect replica cached")
	}
	if h.replicaEvicts.Load() != 1 {
		t.Fatalf("replicaEvicts = %d, want 1", h.replicaEvicts.Load())
	}
	h.capture(meta, key, tup, gen)
	if n := replicaTuples(h, "v", key); n != 0 {
		t.Fatal("pre-repair capture resurrected the suspect replica")
	}
}

// TestHotDisabledZeroAlloc pins the disabled plane's cost: with
// Config.Hot off every query-path touchpoint is one nil check, and the
// stats surface renders nothing.
func TestHotDisabledZeroAlloc(t *testing.T) {
	r := &Router{}
	if n := testing.AllocsPerRun(100, func() {
		if r.hotStats() != nil {
			t.Fatal("disabled hotStats returned counters")
		}
	}); n != 0 {
		t.Fatalf("hotStats allocates %v per run when disabled", n)
	}
}
