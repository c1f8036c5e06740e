package cluster

import (
	"io"
	"time"

	"pmv/internal/obs"
)

// WritePrometheus renders the router's metrics in the Prometheus text
// exposition format: router-level session/query counters, the
// scatter/exec/total phase histograms, and per-shard families labeled
// shard="<addr>" so one dashboard shows which shard is degrading the
// fan-out.
func (r *Router) WritePrometheus(w io.Writer) error {
	m := r.metrics
	p := obs.NewPromWriter(w)

	p.Counter("pmvrouter_sessions_total", "Client sessions accepted.", float64(m.SessionsTotal.Load()))
	p.Gauge("pmvrouter_sessions_active", "Client sessions currently open.", float64(m.SessionsActive.Load()))
	p.Counter("pmvrouter_queries_total", "Routed queries completed.", float64(m.Queries.Load()))
	p.Counter("pmvrouter_rows_total", "Result rows streamed to clients.", float64(m.Rows.Load()))
	p.Counter("pmvrouter_partial_rows_total", "O2 partial rows streamed to clients.", float64(m.PartialRows.Load()))
	p.Counter("pmvrouter_shed_total", "Queries shed to probes-only answers by admission control.", float64(m.Shed.Load()))
	p.Counter("pmvrouter_deadline_expired_total", "Queries truncated by their deadline.", float64(m.DeadlineExpired.Load()))
	p.Counter("pmvrouter_degraded_total", "Queries that lost a shard's partials or failed over O3.", float64(m.Degraded.Load()))
	p.Counter("pmvrouter_partial_only_total", "Queries closed from the PMV plane alone.", float64(m.PartialOnly.Load()))
	p.Counter("pmvrouter_errors_total", "Requests answered with an error frame.", float64(m.Errors.Load()))
	p.Counter("pmvrouter_ds_leftover_total", "Queries failed by the duplicate-multiset consistency audit.", float64(m.DSLeftover.Load()))
	p.Counter("pmvrouter_updates_total", "Update batches acked (applied on every shard).", float64(m.Updates.Load()))
	p.Counter("pmvrouter_update_ops_total", "Update ops applied (primary's count).", float64(m.UpdateOps.Load()))
	p.Counter("pmvrouter_update_rows_total", "Base-relation rows touched by updates (primary's count).", float64(m.UpdateRows.Load()))
	p.Counter("pmvrouter_update_failures_total", "Update batches failed on at least one shard.", float64(m.UpdateFailures.Load()))
	p.Counter("pmvrouter_fanout_sent_total", "Invalidation requests dispatched to key owners.", float64(m.FanoutSent.Load()))
	p.Counter("pmvrouter_fanout_retries_total", "Invalidations retried after re-teaching the shard map.", float64(m.FanoutRetries.Load()))
	p.Counter("pmvrouter_fanout_degrades_total", "Invalidations degraded to whole-view bumps.", float64(m.FanoutDegrades.Load()))
	p.Counter("pmvrouter_fanout_failures_total", "Invalidations lost after the full degradation ladder.", float64(m.FanoutFailures.Load()))
	p.Counter("pmvrouter_fanout_lag_seconds_total", "Cumulative dispatch-to-delivered invalidation lag.", float64(m.FanoutLagNs.Load())/1e9)
	p.Counter("pmvrouter_corrupt_frames_total", "Sessions dropped on framing violations.", float64(m.CorruptFrames.Load()))
	m.Counters.WritePrometheus(p, "pmvrouter")

	p.Counter("pmvrouter_query_cost_rows_total", "Result rows billed by per-query cost accounting.", float64(m.CostRows.Load()))
	p.Counter("pmvrouter_query_cost_wire_bytes_total", "Row-stream bytes (payload plus framing) written to clients.", float64(m.CostBytes.Load()))
	p.Counter("pmvrouter_query_cost_alloc_bytes_total", "Heap bytes attributed to traced routed requests.", float64(m.CostAllocs.Load()))
	p.Counter("pmvrouter_traces_sampled_total", "Routed requests that recorded a trace.", float64(m.TracesSampled.Load()))
	p.Counter("pmvrouter_trace_slow_recorded_total", "Queries recorded in the slow ring by the latency threshold.", float64(m.SlowRecorded.Load()))
	p.Counter("pmvrouter_trace_degraded_recorded_total", "Queries recorded in the slow ring for degrading, regardless of latency.", float64(m.DegradedRecorded.Load()))
	p.Gauge("pmvrouter_trace_store_depth", "Assembled traces currently retained for pmvcli trace.", float64(r.traces.depth()))

	p.Gauge("pmvrouter_shard_map_epoch", "Epoch of the authoritative shard map.", float64(r.shardMap().Epoch()))

	hist := func(name, help string, h interface {
		Dump() ([]obs.Bucket, int64, float64)
	}) {
		buckets, count, sum := h.Dump()
		p.Header(name, "histogram", help)
		p.Histogram(name, "", buckets, count, sum)
	}
	hist("pmvrouter_scatter_seconds", "Probe fan-out latency (O1 plus the slowest shard's O2).", &m.Scatter)
	hist("pmvrouter_exec_seconds", "Routed O3 execution latency.", &m.Exec)
	hist("pmvrouter_query_seconds", "Whole routed query latency.", &m.Total)

	shardCounter := func(name, help string, get func(*ShardMetrics) int64) {
		p.Header(name, "counter", help)
		for _, sm := range m.Shards {
			p.Sample(name, obs.Label("shard", sm.Addr), float64(get(sm)))
		}
	}
	shardCounter("pmvrouter_shard_probes_total", "Probe batches sent to the shard.",
		func(sm *ShardMetrics) int64 { return sm.Probes.Load() })
	shardCounter("pmvrouter_shard_probe_rows_total", "Ls' partial tuples received from the shard.",
		func(sm *ShardMetrics) int64 { return sm.ProbeRows.Load() })
	shardCounter("pmvrouter_shard_probe_failures_total", "Probe batches lost to shard failures.",
		func(sm *ShardMetrics) int64 { return sm.ProbeFailures.Load() })
	shardCounter("pmvrouter_shard_epoch_installs_total", "Shard-map installs pushed to the shard.",
		func(sm *ShardMetrics) int64 { return sm.EpochInstalls.Load() })
	shardCounter("pmvrouter_shard_execs_total", "Routed O3 executions attempted on the shard.",
		func(sm *ShardMetrics) int64 { return sm.Execs.Load() })
	shardCounter("pmvrouter_shard_exec_failures_total", "Routed O3 executions the shard failed.",
		func(sm *ShardMetrics) int64 { return sm.ExecFailures.Load() })
	shardCounter("pmvrouter_shard_refills_total", "Refill batches dispatched to the shard.",
		func(sm *ShardMetrics) int64 { return sm.RefillsSent.Load() })
	shardCounter("pmvrouter_shard_refill_tuples_total", "Tuples the shard confirmed cached from refills.",
		func(sm *ShardMetrics) int64 { return sm.RefillTuples.Load() })
	shardCounter("pmvrouter_shard_refill_failures_total", "Refill batches lost (refill never retries).",
		func(sm *ShardMetrics) int64 { return sm.RefillFailures.Load() })
	shardCounter("pmvrouter_shard_updates_total", "Update batches sent to the shard.",
		func(sm *ShardMetrics) int64 { return sm.Updates.Load() })
	shardCounter("pmvrouter_shard_update_failures_total", "Update batches the shard failed.",
		func(sm *ShardMetrics) int64 { return sm.UpdateFailures.Load() })
	shardCounter("pmvrouter_shard_invals_total", "Invalidation requests dispatched to the shard.",
		func(sm *ShardMetrics) int64 { return sm.InvalsSent.Load() })
	shardCounter("pmvrouter_shard_inval_failures_total", "Invalidations the shard never received.",
		func(sm *ShardMetrics) int64 { return sm.InvalFailures.Load() })

	if r.tt != nil {
		p.Counter("pmvrouter_hedge_denied_total", "Hedge probes refused by the token budget.", float64(m.HedgeDenied.Load()))
		shardCounter("pmvrouter_shard_beats_total", "Heartbeat pings sent to the shard.",
			func(sm *ShardMetrics) int64 { return sm.Beats.Load() })
		shardCounter("pmvrouter_shard_beat_failures_total", "Heartbeat pings the shard failed.",
			func(sm *ShardMetrics) int64 { return sm.BeatFailures.Load() })
		shardCounter("pmvrouter_shard_hedges_total", "Hedge probes launched against the shard.",
			func(sm *ShardMetrics) int64 { return sm.HedgesSent.Load() })
		shardCounter("pmvrouter_shard_hedge_wins_total", "Probe races the hedge arm won.",
			func(sm *ShardMetrics) int64 { return sm.HedgeWins.Load() })
		shardCounter("pmvrouter_shard_breaker_trips_total", "Circuit-breaker transitions to open.",
			func(sm *ShardMetrics) int64 { return sm.BreakerTrips.Load() })
		shardCounter("pmvrouter_shard_breaker_skips_total", "Probes skipped-and-flagged by an open breaker.",
			func(sm *ShardMetrics) int64 { return sm.BreakerSkips.Load() })
		shardCounter("pmvrouter_shard_trial_probes_total", "Probes admitted as half-open breaker trials.",
			func(sm *ShardMetrics) int64 { return sm.TrialProbes.Load() })

		healthGauge := func(name, help string, get func(shard int) float64) {
			p.Header(name, "gauge", help)
			for shard, sm := range m.Shards {
				p.Sample(name, obs.Label("shard", sm.Addr), get(shard))
			}
		}
		now := time.Now()
		healthGauge("pmvrouter_shard_health_ewma_seconds", "EWMA probe/heartbeat round-trip latency.",
			func(shard int) float64 { return float64(r.tt.health[shard].ewmaNs.Load()) / 1e9 })
		healthGauge("pmvrouter_shard_health_phi", "Phi-accrual suspicion level (0 = healthy).",
			func(shard int) float64 { return r.tt.health[shard].phi(now) })
		healthGauge("pmvrouter_shard_breaker_state", "Breaker state (0 closed, 1 open, 2 half-open).",
			func(shard int) float64 { return float64(r.tt.breakers[shard].state.Load()) })
	}

	if hs := r.hotStats(); hs != nil {
		p.Counter("pmvrouter_hot_pushes_total", "MsgHotSet replication rounds fanned to the shards.", float64(hs.Pushes))
		p.Counter("pmvrouter_hot_push_keys_total", "Hot keys carried by MsgHotSet pushes.", float64(hs.PushKeys))
		p.Counter("pmvrouter_hot_push_tuples_total", "Tuples carried by MsgHotSet pushes.", float64(hs.PushTuples))
		p.Counter("pmvrouter_hot_push_failures_total", "MsgHotSet sends that failed after the epoch retry.", float64(hs.PushFails))
		p.Counter("pmvrouter_hot_invals_total", "MsgHotInval fan-outs after write batches.", float64(hs.Invals))
		p.Counter("pmvrouter_hot_inval_keys_total", "Replicated keys invalidated by MsgHotInval fan-outs.", float64(hs.InvalKeys))
		p.Counter("pmvrouter_hot_inval_failures_total", "MsgHotInval sends lost after the full degradation ladder.", float64(hs.InvalFails))
		p.Counter("pmvrouter_hot_replica_hits_total", "Probes answered from the router's replica cache.", float64(hs.ReplicaHits))
		p.Gauge("pmvrouter_hot_replica_keys", "Keys currently held in the router's replica cache.", float64(hs.ReplicaKeys))
		p.Counter("pmvrouter_hot_replica_evicts_total", "Replica entries dropped (writes or top-k churn).", float64(hs.ReplicaEvicts))
		p.Counter("pmvrouter_hot_suppressed_total", "Owner probes skipped because a presence-filter bitset proved the key absent.", float64(hs.Suppressed))
		p.Counter("pmvrouter_hot_filter_refreshes_total", "Per-shard presence-filter snapshot refetches.", float64(hs.FilterRefreshes))
		p.Counter("pmvrouter_hot_topk_offers_total", "Exact-probe observations offered to the top-k trackers.", float64(hs.TopKOffers))
		p.Counter("pmvrouter_hot_topk_churn_total", "Space-saving counter evictions (hot-set instability).", float64(hs.TopKChurn))
	}

	p.Header("pmvrouter_shard_probe_seconds", "histogram", "Per-shard probe round-trip latency.")
	for _, sm := range m.Shards {
		buckets, count, sum := sm.ProbeLatency.Dump()
		p.Histogram("pmvrouter_shard_probe_seconds", obs.Label("shard", sm.Addr), buckets, count, sum)
	}

	obs.WriteGoRuntime(p)
	return p.Flush()
}
