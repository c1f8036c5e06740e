package server

import (
	"io"

	"pmv"
	"pmv/internal/obs"
)

// WritePrometheus renders the server's full metric surface in the
// Prometheus text exposition format: service counters, per-phase
// latency histograms, per-view core counters (including the paper's
// hit probability), and Go runtime families. It is the /metrics
// handler's body when pmvd runs with -obs.
func (s *Server) WritePrometheus(w io.Writer) error {
	p := obs.NewPromWriter(w)
	m := &s.metrics

	p.Counter("pmvd_sessions_total", "Sessions accepted since start.", float64(m.SessionsTotal.Load()))
	p.Gauge("pmvd_sessions_active", "Sessions currently open.", float64(m.SessionsActive.Load()))
	p.Counter("pmvd_queries_total", "Queries completed.", float64(m.Queries.Load()))
	p.Counter("pmvd_rows_total", "Result rows streamed.", float64(m.Rows.Load()))
	p.Counter("pmvd_partial_rows_total", "Rows served from PMVs in Operation O2.", float64(m.PartialRows.Load()))
	p.Counter("pmvd_shed_total", "Queries shed to PMV-only answers by admission control.", float64(m.Shed.Load()))
	p.Counter("pmvd_deadline_expired_total", "Queries truncated by their deadline.", float64(m.DeadlineExpired.Load()))
	p.Counter("pmvd_degraded_total", "Queries answered without the view (S-lock timeout).", float64(m.Degraded.Load()))
	p.Counter("pmvd_partial_only_total", "Queries answered by Operations O1+O2 alone.", float64(m.PartialOnly.Load()))
	p.Counter("pmvd_errors_total", "Per-request failures reported to clients.", float64(m.Errors.Load()))
	p.Counter("pmvd_updates_total", "Update batches accepted.", float64(m.Updates.Load()))
	p.Counter("pmvd_update_ops_total", "Update ops applied.", float64(m.UpdateOps.Load()))
	p.Counter("pmvd_update_rows_total", "Base-relation rows touched by updates.", float64(m.UpdateRows.Load()))
	p.Counter("pmvd_invalidations_total", "Invalidation requests honored.", float64(m.Invalidations.Load()))
	p.Counter("pmvd_corrupt_frames_total", "Sessions dropped on checksum or framing violations.", float64(m.CorruptFrames.Load()))
	es := s.db.EngineStats()
	p.Header("pmvd_dml_statements_total", "counter", "DELETE/UPDATE statements by how they found their rows (located = through an index, scanned = by heap scan).")
	p.Sample("pmvd_dml_statements_total", obs.Label("path", "located"), float64(es.DMLLocated))
	p.Sample("pmvd_dml_statements_total", obs.Label("path", "scanned"), float64(es.DMLScanned))
	m.Counters.WritePrometheus(p, "pmvd")
	p.Gauge("pmvd_pool_size", "Admission-control worker slots.", float64(cap(s.sem)))
	p.Gauge("pmvd_trace_enabled", "1 when per-query tracing is on.", b2f(s.TraceOn()))
	p.Gauge("pmvd_slowlog_threshold_seconds", "Slow-query log threshold (-1 = disabled).", slowSeconds(s.SlowNs()))

	// Per-query cost accounting: the resource bill behind the request
	// counters above.
	p.Counter("pmvd_query_cost_rows_total", "Rows streamed to clients across all request types.", float64(m.CostRows.Load()))
	p.Counter("pmvd_query_cost_wire_bytes_total", "Row-frame bytes written to clients (payload plus framing).", float64(m.CostBytes.Load()))
	p.Counter("pmvd_query_cost_alloc_bytes_total", "Heap bytes allocated while serving traced requests.", float64(m.CostAllocs.Load()))
	p.Counter("pmvd_query_cost_fsyncs_total", "WAL fsyncs attributed to traced write batches.", float64(m.CostFsyncs.Load()))
	p.Counter("pmvd_traces_sampled_total", "Requests that recorded a trace.", float64(m.TracesSampled.Load()))

	if ss := s.snapshotStats(); ss != nil {
		p.Gauge("pmvd_snapshot_age_seconds", "Seconds since the last successful cache snapshot (-1 = never).", ss.AgeSeconds)
		p.Gauge("pmvd_snapshot_last_write_bytes", "Size of the last successful cache snapshot.", float64(ss.LastWriteBytes))
		p.Gauge("pmvd_snapshot_last_write_seconds", "Duration of the last successful cache snapshot write.", float64(ss.LastWriteNs)/1e9)
		p.Counter("pmvd_snapshot_writes_total", "Cache snapshots committed.", float64(ss.Writes))
		p.Counter("pmvd_snapshot_write_errors_total", "Cache snapshot commits that failed.", float64(ss.WriteErrors))
		p.Gauge("pmvd_snapshot_warm_entries", "View entries admitted from the snapshot at the last boot.", float64(ss.WarmEntries))
		p.Gauge("pmvd_snapshot_warm_tuples", "Cached tuples admitted from the snapshot at the last boot.", float64(ss.WarmTuples))
		p.Counter("pmvd_snapshot_stale_rejects_total", "Snapshots rejected at boot for stamp mismatches (epoch, generation, revision).", float64(ss.StaleRejects))
		p.Counter("pmvd_snapshot_corrupt_rejects_total", "Snapshots rejected at boot for structural damage.", float64(ss.CorruptRejects))
		p.Counter("pmvd_snapshot_pending_skips_total", "Snapshot writes skipped for an in-flight maintenance batch.", float64(ss.PendingSkips))
		p.Gauge("pmvd_snapshot_epoch", "Shard-map epoch persisted beside the snapshot.", float64(ss.Epoch))
	}

	if ms := s.maintStats(); ms != nil {
		p.Gauge("pmvd_maint_queue_depth", "Update requests waiting in the ingest queue.", float64(ms.QueueDepth))
		p.Gauge("pmvd_maint_queue_cap", "Ingest queue capacity.", float64(ms.QueueCap))
		p.Counter("pmvd_maint_ops_ingested_total", "Ops accepted by the write plane.", float64(ms.OpsIngested))
		p.Counter("pmvd_maint_ops_applied_total", "Ops applied to base relations.", float64(ms.OpsApplied))
		p.Counter("pmvd_maint_op_errors_total", "Ops that failed to apply.", float64(ms.OpErrors))
		p.Counter("pmvd_maint_batches_total", "Batches flushed.", float64(ms.Batches))
		p.Counter("pmvd_maint_size_flushes_total", "Batches flushed on size.", float64(ms.SizeFlushes))
		p.Counter("pmvd_maint_age_flushes_total", "Batches flushed on age.", float64(ms.AgeFlushes))
		p.Gauge("pmvd_maint_max_batch_ops", "Largest batch applied so far.", float64(ms.MaxBatchOps))
		p.Counter("pmvd_maint_lock_wait_seconds_total", "Time batches waited for view X locks.", float64(ms.LockWaitNs)/1e9)
		p.Counter("pmvd_maint_apply_seconds_total", "Time spent applying base-relation ops.", float64(ms.ApplyNs)/1e9)
		p.Counter("pmvd_maint_coalesced_ops_total", "Ops applied through multi-op coalesced runs.", float64(ms.CoalescedOps))
		p.Counter("pmvd_maint_group_syncs_total", "Per-batch WAL group commits.", float64(ms.GroupSyncs))
		p.Counter("pmvd_maint_sync_seconds_total", "Time spent in group-commit WAL syncs.", float64(ms.SyncNs)/1e9)
		p.Counter("pmvd_maint_maintain_seconds_total", "Time spent in view maintenance.", float64(ms.MaintNs)/1e9)
		p.Counter("pmvd_maint_keys_affected_total", "Affected bcp keys computed.", float64(ms.KeysAffected))
		p.Counter("pmvd_maint_light_keys_total", "Keys classified light (purged eagerly).", float64(ms.LightKeys))
		p.Counter("pmvd_maint_heavy_keys_total", "Keys classified heavy (invalidated lazily).", float64(ms.HeavyKeys))
		p.Counter("pmvd_maint_entries_purged_total", "View entries purged by the light path.", float64(ms.EntriesPurged))
		p.Counter("pmvd_maint_tuples_purged_total", "Cached tuples purged by the light path.", float64(ms.TuplesPurged))
		p.Counter("pmvd_maint_key_gen_bumps_total", "Per-key invalidation-generation bumps.", float64(ms.KeyGenBumps))
		p.Counter("pmvd_maint_wide_gen_bumps_total", "View-wide invalidation-generation bumps.", float64(ms.WideGenBumps))
		p.Counter("pmvd_maint_purge_degrades_total", "Purges degraded to generation bumps on lock failure.", float64(ms.PurgeDegrades))
	}

	if fs := s.freqStats(); fs != nil {
		p.Counter("pmvd_freq_probes_suppressed_total", "O2 probes skipped because the presence filter proved the key absent.", float64(fs.ProbesSuppressed))
		p.Counter("pmvd_freq_filter_positives_total", "Probes the presence filter let through.", float64(fs.FilterPositives))
		p.Counter("pmvd_freq_filter_false_positives_total", "Filter positives that found no live entry.", float64(fs.FilterFalsePositives))
		p.Counter("pmvd_freq_admit_gate_rejects_total", "Cache admissions declined by the popularity gate.", float64(fs.AdmitGateRejects))
		p.Counter("pmvd_freq_hot_set_keys_total", "Hot keys replicated into the cache via MsgHotSet.", float64(fs.HotSetKeys))
		p.Counter("pmvd_freq_hot_set_tuples_total", "Tuples cached from MsgHotSet pushes.", float64(fs.HotSetTuples))
		p.Counter("pmvd_freq_hot_inval_keys_total", "Replicated keys invalidated via MsgHotInval.", float64(fs.HotInvalKeys))
		p.Counter("pmvd_freq_sketch_touches_total", "Popularity observations absorbed by the count-min sketches.", float64(fs.SketchTouches))
		p.Counter("pmvd_freq_sketch_rotations_total", "Sketch epoch rotations (window expiries).", float64(fs.SketchRotations))
		p.Gauge("pmvd_freq_sketch_load", "Highest per-view sketch epoch load (touches this window).", fs.SketchLoad)
	}

	p.Header("pmvd_query_seconds", "histogram", "Query latency by phase (partial = O1+O2, exec = O3, total = whole query).")
	for _, ph := range []struct {
		name string
		h    *Hist
	}{{"partial", &m.PartialPhase}, {"exec", &m.ExecPhase}, {"total", &m.Total}} {
		buckets, count, sum := ph.h.Dump()
		p.Histogram("pmvd_query_seconds", obs.Label("phase", ph.name), buckets, count, sum)
	}

	// Per-view families: snapshot each view once, then emit family by
	// family (Prometheus requires samples of a family to be contiguous).
	type viewRow struct {
		lbl     string
		st      pmv.ViewStats
		entries int
		maxE    int
		tuples  int
		bytes   int
	}
	var rows []viewRow
	for _, v := range s.db.Views() {
		rows = append(rows, viewRow{
			lbl:     obs.Label("view", v.Name()),
			st:      v.Stats(),
			entries: v.Len(),
			maxE:    v.Config().MaxEntries,
			tuples:  v.TupleCount(),
			bytes:   v.SizeBytes(),
		})
	}

	p.Header("pmv_view_hit_probability", "gauge", "Fraction of queries with at least one part cached (the paper's hit probability).")
	for _, r := range rows {
		p.Sample("pmv_view_hit_probability", r.lbl, r.st.HitProbability())
	}
	p.Header("pmv_view_occupancy", "gauge", "Live entries over the MaxEntries bound L.")
	for _, r := range rows {
		occ := 0.0
		if r.maxE > 0 {
			occ = float64(r.entries) / float64(r.maxE)
		}
		p.Sample("pmv_view_occupancy", r.lbl, occ)
	}
	p.Header("pmv_view_entries", "gauge", "Entries currently holding tuples.")
	for _, r := range rows {
		p.Sample("pmv_view_entries", r.lbl, float64(r.entries))
	}
	p.Header("pmv_view_tuples", "gauge", "Cached result tuples.")
	for _, r := range rows {
		p.Sample("pmv_view_tuples", r.lbl, float64(r.tuples))
	}
	p.Header("pmv_view_bytes", "gauge", "Estimated view footprint in bytes.")
	for _, r := range rows {
		p.Sample("pmv_view_bytes", r.lbl, float64(r.bytes))
	}
	for _, fam := range []struct {
		name, help string
		get        func(st pmv.ViewStats) float64
	}{
		{"pmv_view_queries_total", "Queries completed against the view.", func(st pmv.ViewStats) float64 { return float64(st.Queries) }},
		{"pmv_view_query_hits_total", "Queries with at least one cached part.", func(st pmv.ViewStats) float64 { return float64(st.QueryHits) }},
		{"pmv_view_parts_probed_total", "Condition parts generated by Operation O1.", func(st pmv.ViewStats) float64 { return float64(st.PartsProbed) }},
		{"pmv_view_partial_tuples_total", "Tuples served from the view in Operation O2.", func(st pmv.ViewStats) float64 { return float64(st.PartialTuples) }},
		{"pmv_view_tuples_cached_total", "Tuples cached by Operation O3 refills.", func(st pmv.ViewStats) float64 { return float64(st.TuplesCached) }},
		{"pmv_view_entries_evicted_total", "Entries evicted by the replacement policy.", func(st pmv.ViewStats) float64 { return float64(st.EntriesEvicted) }},
		{"pmv_view_tuples_purged_total", "Tuples purged by deferred maintenance.", func(st pmv.ViewStats) float64 { return float64(st.TuplesPurged) }},
		{"pmv_view_degraded_total", "Queries answered without the view (S-lock timeout).", func(st pmv.ViewStats) float64 { return float64(st.DegradedQueries) }},
		{"pmv_view_maint_seconds_total", "Time spent in delete/update maintenance.", func(st pmv.ViewStats) float64 { return st.MaintTime.Seconds() }},
		{"pmv_view_lock_wait_seconds_total", "Time queries waited for the view's S lock.", func(st pmv.ViewStats) float64 { return st.LockWaitTime.Seconds() }},
		{"pmv_view_o3_seconds_total", "Time spent in Operation O3 (query execution).", func(st pmv.ViewStats) float64 { return st.O3Time.Seconds() }},
	} {
		p.Header(fam.name, "counter", fam.help)
		for _, r := range rows {
			p.Sample(fam.name, r.lbl, fam.get(r.st))
		}
	}

	obs.WriteGoRuntime(p)
	return p.Flush()
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func slowSeconds(ns int64) float64 {
	if ns < 0 {
		return -1
	}
	return float64(ns) / 1e9
}
