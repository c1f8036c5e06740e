// hot.go is the router half of the frequency plane: a space-saving
// top-k tracker over probed bcp keys per view, a bounded router-side
// replica cache of the hottest entries' Ls′ tuples, per-shard
// presence-filter bitsets for negative-probe suppression, and the
// periodic MsgHotSet fan-out that replicates the hot set to every
// shard.
//
// Correctness leans on two one-sided contracts:
//
//   - Suppression (a shard's bitset proves a key absent, so the probe
//     is skipped) can only lose a would-be partial — Operation O3
//     recomputes the row — never fabricate one. A stale bitset
//     therefore degrades hit rate, not answers.
//   - Replica answers (the router emits a hot key's tuples itself)
//     are audited by the DS duplicate multiset like any partial: a
//     stale replica's tuples are never matched by O3 and fail the
//     query loudly. Writes keep that window tiny by dropping router
//     replicas synchronously before the ack, and the seq discipline
//     below keeps shard-side replicas ordered.
//
// Seq ordering: the global push/inval sequence is allocated BEFORE a
// push snapshots the replica cache and AFTER an invalidation empties
// it (both under the plane's mutex). Any push whose snapshot saw
// pre-write data therefore carries a smaller seq than the write's
// HotInval, and the shards' per-key floors drop it — an in-flight
// push can never resurrect a stale replica.
//
// Capture ordering: the router's own replica cache has the same
// resurrection hazard from a different direction — a probe (or O3
// refill) that started before a write can deliver pre-write tuples
// after the write already dropped the view's replicas, and a capture
// of those tuples would serve stale data to every later read. Each
// query therefore snapshots the view's invalidation generation before
// its probes are dispatched, and capture discards tuples whose
// generation is no longer current. View-level granularity is
// deliberately coarse: a write cancels every in-flight capture for the
// view, costing warm-up speed, never correctness.
//
// Self-repair: both disciplines above are best-effort against a
// network that can lose a HotInval outright (shard dead past the
// whole-view fallback). A shard-side replica that misses its
// invalidation has no other death: local maintenance only kills owned
// damage, and later pushes skip populated entries. The DS audit is the
// detector — a stale replica's partials are never matched by execution
// — and repair() is the reaction: on any DS leftover the router drops
// the query's replicas and re-fans HotInval for its pushed keys, so
// staleness costs loud flagged queries for one round trip, never a
// silent wrong answer and never a permanently poisoned cache.
//
// One deliberate trade: suppressing a probe also starves the owner
// shard's popularity sketch for that key, so a suppressed key cannot
// earn shard-side admission through refill. Keys hot enough to matter
// are tracked by the router's own top-k and warmed through the
// replication path instead (ApplyHotSet bypasses the admission gate);
// mid-popularity absent keys simply stay uncached and are answered by
// O3 — a cache-miss cost, never a correctness one.
package cluster

import (
	"context"
	"errors"
	"maps"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pmv/client"
	"pmv/internal/core"
	"pmv/internal/freq"
	"pmv/internal/value"
	"pmv/internal/wire"
)

// hotReplicaTupleCap bounds one replica entry's tuple capture; shards
// re-enforce their own F bound (TuplesPerBCP) on ApplyHotSet anyway.
const hotReplicaTupleCap = 64

// probeLocal verdicts.
const (
	hotProbe      = iota // nothing local: probe the owner
	hotServed            // answered from the router's replica cache
	hotSuppressed        // owner's bitset proves the key absent: skip
)

// hotPlane is the router's frequency-plane state; nil unless
// Config.Hot — every touchpoint is a single nil check when disabled,
// and a disabled router emits byte-identical wire traffic.
type hotPlane struct {
	r *Router

	// seq orders pushes against invalidations cluster-wide (see the
	// package comment for the allocation discipline).
	seq atomic.Uint64

	mu    sync.Mutex
	views map[string]*hotView

	fmu     sync.RWMutex
	filters []map[string]*freq.Bitset // per shard: view -> latest snapshot

	pushes, pushKeys, pushTuples, pushFails atomic.Int64
	invals, invalKeys, invalFails           atomic.Int64
	replicaHits, replicaEvicts              atomic.Int64
	suppressed, filterRefreshes             atomic.Int64
}

// hotView is one view's tracker, replica cache, and pushed-key set.
type hotView struct {
	topk *freq.TopK
	// replicas holds captured Ls′ tuples for tracked keys, bounded to
	// the tracker's counter capacity (4k keys, hotReplicaTupleCap
	// tuples each).
	replicas map[string]*hotReplica
	// pushed remembers keys ever sent in a MsgHotSet, so a write only
	// fans HotInval for keys that may actually be replicated somewhere.
	pushed map[string]struct{}
	// gen counts the view's invalidations; captures snapshotted under
	// an older generation are discarded (see the package comment).
	gen uint64
}

// hotReplica is one key's captured entry: tuples plus their encoded
// forms for dedup (the same key's partials arrive once per query).
type hotReplica struct {
	tuples []value.Tuple
	seen   map[string]struct{}
}

func newHotPlane(r *Router) *hotPlane {
	return &hotPlane{
		r:       r,
		views:   make(map[string]*hotView),
		filters: make([]map[string]*freq.Bitset, len(r.pools)),
	}
}

// viewLocked returns (creating if needed) a view's hot state. Caller
// holds h.mu.
func (h *hotPlane) viewLocked(name string) *hotView {
	hv := h.views[name]
	if hv == nil {
		hv = &hotView{
			topk:     freq.NewTopK(h.r.cfg.HotK),
			replicas: make(map[string]*hotReplica),
			pushed:   make(map[string]struct{}),
		}
		h.views[name] = hv
	}
	return hv
}

// filterFor returns the freshest bitset snapshot for (shard, view);
// nil suppresses nothing.
func (h *hotPlane) filterFor(shard int, view string) *freq.Bitset {
	h.fmu.RLock()
	defer h.fmu.RUnlock()
	if m := h.filters[shard]; m != nil {
		return m[view]
	}
	return nil
}

// probeLocal runs the frequency plane's per-part work before a probe
// is sent to its owner: offer the key to the top-k tracker (every
// exact probe is a popularity observation), answer from the replica
// cache when possible, and otherwise consult the owner's bitset for a
// proof of absence. emit must be the query's synchronized partial
// emitter; replica tuples flow through it so the DS multiset audits
// them like any shard-served partial. Only exact parts reach here —
// an inexact part needs shard-side residual filtering, so a raw
// replica answer could emit rows outside the query.
func (h *hotPlane) probeLocal(view string, owner int, key string, emit func(value.Tuple) error) int {
	h.mu.Lock()
	hv := h.viewLocked(view)
	hv.topk.Offer(key)
	var tuples []value.Tuple
	if rep := hv.replicas[key]; rep != nil && len(rep.tuples) > 0 {
		tuples = slices.Clone(rep.tuples)
	}
	h.mu.Unlock()
	if tuples != nil {
		h.replicaHits.Add(1)
		for _, t := range tuples {
			if emit(t) != nil {
				break // the session latched the write failure; stop feeding it
			}
		}
		return hotServed
	}
	if bs := h.filterFor(owner, view); !bs.MayContain(key) {
		h.suppressed.Add(1)
		return hotSuppressed
	}
	return hotProbe
}

// suppressOnly is probeLocal for inexact parts: absence proof still
// holds (no entry under the bcp key means the probe would miss), but
// replica answers and popularity tracking are exact-part business.
func (h *hotPlane) suppressOnly(view string, owner int, key string) bool {
	if bs := h.filterFor(owner, view); !bs.MayContain(key) {
		h.suppressed.Add(1)
		return true
	}
	return false
}

// viewGen returns the view's current invalidation generation. Queries
// snapshot it before dispatching probes and pass it to capture, so a
// tuple read before a write can never repopulate a replica the write
// dropped.
func (h *hotPlane) viewGen(name string) uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.viewLocked(name).gen
}

// capture records one emitted Ls′ tuple t, whose bcp key is key, into
// the replica cache when the key is currently tracked by the view's
// top-k. gen must be the viewGen snapshot taken before the query's
// probes were dispatched; a stale generation means a write landed
// while the tuple was in flight, and the capture is discarded. Tuples
// are deduped on their encoding — the same hot key's partials arrive
// once per query — and cloned, because the caller's tuple buffer is
// not ours to retain.
func (h *hotPlane) capture(meta *viewMeta, key string, t value.Tuple, gen uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	hv := h.viewLocked(meta.name)
	if hv.gen != gen {
		return
	}
	if !hv.topk.Tracked(key) {
		return
	}
	rep := hv.replicas[key]
	if rep == nil {
		rep = &hotReplica{seen: make(map[string]struct{})}
		hv.replicas[key] = rep
	}
	if len(rep.tuples) >= hotReplicaTupleCap {
		return
	}
	enc := string(value.EncodeTuple(nil, t))
	if _, dup := rep.seen[enc]; dup {
		return
	}
	rep.seen[enc] = struct{}{}
	rep.tuples = append(rep.tuples, t.Clone())
}

// invalidate is the write path's synchronous hook, called after every
// shard acked a ΔR batch and BEFORE the writer's ack: drop router
// replicas for the damaged keys (so a post-ack read can never be
// served pre-write data by the router itself), then fan MsgHotInval
// for the pushed ones to every shard asynchronously. keys/wide are
// the primary's damage report, per view.
func (h *hotPlane) invalidate(keys map[string][][]byte, wide map[string]bool) {
	if len(keys) == 0 && len(wide) == 0 {
		return
	}
	perView := make(map[string][]string)
	h.mu.Lock()
	for view, hv := range h.views {
		if wide[view] || len(keys[view]) > 0 {
			// Cancel in-flight captures: a probe dispatched before this
			// write may still deliver pre-write tuples after the drop
			// below.
			hv.gen++
		}
		if wide[view] {
			if n := len(hv.replicas); n > 0 {
				h.replicaEvicts.Add(int64(n))
				hv.replicas = make(map[string]*hotReplica)
			}
			if len(hv.pushed) > 0 {
				ks := make([]string, 0, len(hv.pushed))
				for k := range hv.pushed {
					ks = append(ks, k)
				}
				sort.Strings(ks)
				perView[view] = ks
				hv.pushed = make(map[string]struct{})
			}
			continue
		}
		for _, k := range keys[view] {
			key := string(k)
			if _, ok := hv.replicas[key]; ok {
				delete(hv.replicas, key)
				h.replicaEvicts.Add(1)
			}
			if _, ok := hv.pushed[key]; ok {
				perView[view] = append(perView[view], key)
			}
		}
	}
	h.mu.Unlock()
	if len(perView) == 0 {
		return
	}
	// Seq after the drop: any push that snapshotted pre-write replicas
	// allocated its seq earlier, so the floors this inval raises block
	// it on every shard.
	m := h.r.shardMap()
	for view, ks := range perView {
		h.fanInval(view, ks, m)
	}
}

// fanInval allocates the next hot seq and fans one MsgHotInval to
// every shard asynchronously.
func (h *hotPlane) fanInval(view string, ks []string, m *ShardMap) {
	req := wire.HotInvalRequest{View: view, Epoch: m.Epoch(), Seq: h.seq.Add(1), Keys: ks}
	h.invals.Add(1)
	h.invalKeys.Add(int64(len(ks)))
	for shard := range h.r.pools {
		h.r.invalWG.Add(1)
		go func(shard int, req wire.HotInvalRequest) {
			defer h.r.invalWG.Done()
			ctx, cancel := context.WithTimeout(context.Background(), h.r.cfg.RefillTimeout)
			defer cancel()
			if err := h.sendHotInval(ctx, shard, req, m); err != nil {
				h.invalFails.Add(1)
			}
		}(shard, req)
	}
}

// repair reacts to a failed duplicate-multiset audit (a DS leftover):
// some cache served partial tuples execution could not reproduce, and
// with replication in play the stale copy may be a shard-side hot
// entry whose HotInval was lost to the network — unlike an owned
// entry, no local maintenance will ever invalidate it, later pushes
// skip populated entries, and its stale partials poison the router's
// own replica through capture. Drop the query's replicas, cancel
// in-flight captures, and re-fan HotInval for every pushed key the
// query touched; the next read then misses, recomputes, and re-warms
// from fresh data. Until the repair lands the audit keeps failing
// queries loudly — the plane trades availability, never correctness.
func (h *hotPlane) repair(meta *viewMeta, parts []core.ConditionPart) {
	h.mu.Lock()
	hv := h.viewLocked(meta.name)
	hv.gen++
	var ks []string
	for i := range parts {
		key := parts[i].BCPKey
		if _, ok := hv.replicas[key]; ok {
			delete(hv.replicas, key)
			h.replicaEvicts.Add(1)
		}
		if _, ok := hv.pushed[key]; ok {
			ks = append(ks, key)
		}
	}
	h.mu.Unlock()
	if len(ks) == 0 {
		return
	}
	h.fanInval(meta.name, ks, h.r.shardMap())
}

// sendHotInval delivers one hot invalidation, descending the same
// ladder as the write plane's per-key fan-out: MsgErrEpoch re-teaches
// the shard map and retries once; any remaining failure degrades to
// an epoch-less whole-view invalidation, which kills the shard's
// replicas (they are ordinary generation-stamped entries) at the cost
// of its whole cache for the view. A rung that fails entirely leaves
// the DS audit as the backstop — a surviving stale replica flags the
// query, it never answers wrong.
func (h *hotPlane) sendHotInval(ctx context.Context, shard int, req wire.HotInvalRequest, m *ShardMap) error {
	c := h.r.pools[shard].get()
	_, err := c.HotInval(ctx, req)
	if errors.Is(err, wire.ErrEpoch) && ctx.Err() == nil && h.r.installOn(shard, m) {
		_, err = c.HotInval(ctx, req)
	}
	if err != nil && ctx.Err() == nil {
		if _, derr := c.Invalidate(ctx, wire.InvalidateRequest{View: req.View, All: true}); derr == nil {
			h.r.pools[shard].put(c, true)
			return nil
		}
	}
	h.r.pools[shard].put(c, err == nil || errors.Is(err, client.ErrRemote))
	return err
}

// hotPushLoop periodically replicates each view's hot set to every
// shard; hotFilterLoop periodically refetches each shard's presence
// filters. Both stop with the router.
func (r *Router) hotPushLoop() {
	defer r.bgWG.Done()
	t := time.NewTicker(r.cfg.HotPushInterval)
	defer t.Stop()
	for {
		select {
		case <-r.Closing():
			return
		case <-t.C:
		}
		r.hot.pushAll()
	}
}

func (r *Router) hotFilterLoop() {
	defer r.bgWG.Done()
	t := time.NewTicker(r.cfg.FilterRefreshInterval)
	defer t.Stop()
	for {
		select {
		case <-r.Closing():
			return
		case <-t.C:
		}
		r.hot.refreshFilters()
	}
}

// pushAll cuts one MsgHotSet per view with replicated tuples and fans
// it to every shard. The seq is allocated before the snapshot (see the
// package comment); replicas for keys the tracker has since evicted
// are pruned here, keeping the cache O(k).
func (h *hotPlane) pushAll() {
	h.mu.Lock()
	names := make([]string, 0, len(h.views))
	for name := range h.views {
		names = append(names, name)
	}
	h.mu.Unlock()
	sort.Strings(names)
	m := h.r.shardMap()
	for _, name := range names {
		seq := h.seq.Add(1)
		h.mu.Lock()
		hv := h.viewLocked(name)
		for key := range hv.replicas {
			if !hv.topk.Tracked(key) {
				delete(hv.replicas, key)
				h.replicaEvicts.Add(1)
			}
		}
		var keys []wire.HotKey
		var tuples int
		for _, kc := range hv.topk.Top() {
			rep := hv.replicas[kc.Key]
			if rep == nil || len(rep.tuples) == 0 {
				continue
			}
			keys = append(keys, wire.HotKey{Key: kc.Key, Tuples: slices.Clone(rep.tuples)})
			tuples += len(rep.tuples)
			hv.pushed[kc.Key] = struct{}{}
		}
		h.mu.Unlock()
		if len(keys) == 0 {
			continue
		}
		req := wire.HotSetRequest{View: name, Epoch: m.Epoch(), Seq: seq, Keys: keys}
		h.pushes.Add(1)
		h.pushKeys.Add(int64(len(keys)))
		h.pushTuples.Add(int64(tuples))
		var wg sync.WaitGroup
		for shard := range h.r.pools {
			wg.Add(1)
			go func(shard int) {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), h.r.cfg.RefillTimeout)
				defer cancel()
				c := h.r.pools[shard].get()
				_, err := c.HotSet(ctx, req)
				if errors.Is(err, wire.ErrEpoch) && ctx.Err() == nil && h.r.installOn(shard, m) {
					_, err = c.HotSet(ctx, req)
				}
				h.r.pools[shard].put(c, err == nil || errors.Is(err, client.ErrRemote))
				if err != nil {
					h.pushFails.Add(1)
				}
			}(shard)
		}
		wg.Wait()
	}
}

// refreshFilters refetches every (shard, view) presence-filter bitset
// the router has view metadata for. A fetch failure clears that slot —
// better to probe normally than to suppress on a snapshot whose shard
// may have restarted with a different cache.
func (h *hotPlane) refreshFilters() {
	r := h.r
	r.vmu.Lock()
	names := make([]string, 0, len(r.views))
	for name := range r.views {
		names = append(names, name)
	}
	r.vmu.Unlock()
	sort.Strings(names)
	if len(names) == 0 {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.DialTimeout+2*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for shard := range r.pools {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			fresh := make(map[string]*freq.Bitset, len(names))
			healthy := true
			c := r.pools[shard].get()
			for _, name := range names {
				fr, err := c.Filter(ctx, name)
				if err != nil {
					fresh[name] = nil
					if !errors.Is(err, client.ErrRemote) {
						healthy = false
					}
					continue
				}
				fresh[name] = freq.NewBitset(fr.Bits, fr.Hashes, fr.Gen, fr.Keys)
			}
			r.pools[shard].put(c, healthy)
			h.fmu.Lock()
			if h.filters[shard] == nil {
				h.filters[shard] = fresh
			} else {
				maps.Copy(h.filters[shard], fresh)
			}
			h.fmu.Unlock()
			h.filterRefreshes.Add(1)
		}(shard)
	}
	wg.Wait()
}

// hotStats renders the plane's counters; nil when disabled.
func (r *Router) hotStats() *wire.HotStats {
	h := r.hot
	if h == nil {
		return nil
	}
	out := &wire.HotStats{
		Pushes:          h.pushes.Load(),
		PushKeys:        h.pushKeys.Load(),
		PushTuples:      h.pushTuples.Load(),
		PushFails:       h.pushFails.Load(),
		Invals:          h.invals.Load(),
		InvalKeys:       h.invalKeys.Load(),
		InvalFails:      h.invalFails.Load(),
		ReplicaHits:     h.replicaHits.Load(),
		ReplicaEvicts:   h.replicaEvicts.Load(),
		Suppressed:      h.suppressed.Load(),
		FilterRefreshes: h.filterRefreshes.Load(),
	}
	h.mu.Lock()
	for _, hv := range h.views {
		out.ReplicaKeys += int64(len(hv.replicas))
		offers, churn := hv.topk.Stats()
		out.TopKOffers += offers
		out.TopKChurn += churn
	}
	h.mu.Unlock()
	return out
}
