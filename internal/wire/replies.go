package wire

import (
	"pmv/internal/expr"
	"pmv/internal/value"
)

// Admin replies travel as JSON inside a MsgReply frame. They are
// defined here (not in the server) so the client package can decode
// them without linking the engine.

// ViewInfo describes one partial materialized view. Template is
// included so remote tools (pmvcli -addr) can bind queries without
// opening the database directory.
type ViewInfo struct {
	Name         string         `json:"name"`
	Template     *expr.Template `json:"template"`
	MaxEntries   int            `json:"max_entries"`
	TuplesPerBCP int            `json:"tuples_per_bcp"`
	Policy       string         `json:"policy"`
	Entries      int            `json:"entries"`
	Tuples       int            `json:"tuples"`
	Bytes        int            `json:"bytes"`
	HitProb      float64        `json:"hit_prob"`
	// Cluster routing metadata: the interval dividers (keyed by
	// condition position) and the O1 part cap a router needs to run
	// BreakConditions locally and compute bcp keys that agree with the
	// shard's own coder.
	MaxConditionParts int                   `json:"max_condition_parts,omitempty"`
	Dividers          map[int][]value.Value `json:"dividers,omitempty"`
}

// TableInfo describes one base relation.
type TableInfo struct {
	Name    string `json:"name"`
	Columns int    `json:"columns"`
	Indexes int    `json:"indexes"`
	Tuples  int64  `json:"tuples"`
}

// ColumnInfo is one column of a schema.
type ColumnInfo struct {
	Name string     `json:"name"`
	Type value.Type `json:"type"`
}

// IndexInfo is one secondary index of a schema.
type IndexInfo struct {
	Name string   `json:"name"`
	Cols []string `json:"cols"`
}

// SchemaReply answers MsgSchema.
type SchemaReply struct {
	Columns []ColumnInfo `json:"columns"`
	Indexes []IndexInfo  `json:"indexes"`
}

// CountReply answers MsgCount.
type CountReply struct {
	Count int64 `json:"count"`
}

// PeekReply answers MsgPeek.
type PeekReply struct {
	Rows []value.Tuple `json:"rows"`
}

// OKReply answers side-effect commands (analyze, checkpoint).
type OKReply struct {
	OK bool `json:"ok"`
}

// HistSnapshot summarizes one latency histogram (nanoseconds).
type HistSnapshot struct {
	Count  int64 `json:"count"`
	MeanNs int64 `json:"mean_ns"`
	P50Ns  int64 `json:"p50_ns"`
	P90Ns  int64 `json:"p90_ns"`
	P99Ns  int64 `json:"p99_ns"`
	MaxNs  int64 `json:"max_ns"`
}

// ServerStats is the service layer's counter snapshot.
type ServerStats struct {
	SessionsTotal   int64 `json:"sessions_total"`
	SessionsActive  int64 `json:"sessions_active"`
	Queries         int64 `json:"queries"`
	Rows            int64 `json:"rows"`
	PartialRows     int64 `json:"partial_rows"`
	Shed            int64 `json:"shed"`
	DeadlineExpired int64 `json:"deadline_expired"`
	Degraded        int64 `json:"degraded"`
	PartialOnly     int64 `json:"partial_only"`
	Errors          int64 `json:"errors"`

	// Write plane.
	Updates       int64 `json:"updates"`
	UpdateOps     int64 `json:"update_ops"`
	UpdateRows    int64 `json:"update_rows"`
	Invalidations int64 `json:"invalidations"`

	// Network-plane failure modes.
	ConnRejected  int64 `json:"conn_rejected"`
	IdleReaped    int64 `json:"idle_reaped"`
	ReadTimeouts  int64 `json:"read_timeouts"`
	WriteTimeouts int64 `json:"write_timeouts"`
	CorruptFrames int64 `json:"corrupt_frames"`
	SessionResets int64 `json:"session_resets"`

	// Cost accounting: cumulative per-query resource bills (rows
	// scanned or streamed, bytes written to the wire, heap bytes
	// sampled on traced queries, WAL fsyncs attributed to batches).
	CostRows   int64 `json:"cost_rows"`
	CostBytes  int64 `json:"cost_bytes"`
	CostAllocs int64 `json:"cost_allocs"`
	CostFsyncs int64 `json:"cost_fsyncs"`
	// TracesSampled counts queries that ran with a live trace.
	TracesSampled int64 `json:"traces_sampled"`

	// PartialPhase times Operations O1+O2 (time to the last partial
	// row), ExecPhase times Operation O3, Total times whole queries.
	PartialPhase HistSnapshot `json:"partial_phase"`
	ExecPhase    HistSnapshot `json:"exec_phase"`
	Total        HistSnapshot `json:"total"`
}

// EngineStatsReply mirrors the engine's counters (engine.Stats).
type EngineStatsReply struct {
	LockRetries     int64 `json:"lock_retries"`
	LockTimeouts    int64 `json:"lock_timeouts"`
	DegradedQueries int64 `json:"degraded_queries"`
	TornPageRepairs int64 `json:"torn_page_repairs"`
	// DMLLocated / DMLScanned count DELETE/UPDATE statements that found
	// their rows through an index / by heap scan.
	DMLLocated int64 `json:"dml_located"`
	DMLScanned int64 `json:"dml_scanned"`
}

// DBStatsReply mirrors the database-level counters.
type DBStatsReply struct {
	BufferHits     int64 `json:"buffer_hits"`
	BufferMisses   int64 `json:"buffer_misses"`
	PhysicalReads  int64 `json:"physical_reads"`
	PhysicalWrites int64 `json:"physical_writes"`
	ViewBytes      int   `json:"view_bytes"`
}

// SnapshotStats is the snapshot manager's health: how warm restarts
// are doing and how fresh the on-disk snapshot is.
type SnapshotStats struct {
	// Epoch is the shard-map epoch persisted beside the snapshot.
	Epoch uint64 `json:"epoch"`
	// AgeSeconds since the last successful write (-1 = never written).
	AgeSeconds float64 `json:"age_seconds"`
	// LastWriteBytes / LastWriteNs describe the last successful write.
	LastWriteBytes int64 `json:"last_write_bytes"`
	LastWriteNs    int64 `json:"last_write_ns"`
	Writes         int64 `json:"writes"`
	WriteErrors    int64 `json:"write_errors"`
	// WarmEntries / WarmTuples were admitted at the last boot.
	WarmEntries int64 `json:"warm_entries"`
	WarmTuples  int64 `json:"warm_tuples"`
	// StaleRejects / CorruptRejects count snapshots refused at boot.
	StaleRejects   int64 `json:"stale_rejects"`
	CorruptRejects int64 `json:"corrupt_rejects"`
	// PendingSkips counts snapshot writes skipped because a
	// maintenance batch was in flight (warm-booting across that window
	// could serve invalidated entries).
	PendingSkips int64 `json:"pending_skips"`
	// LastBoot is the human-readable outcome of the last Load.
	LastBoot string `json:"last_boot"`
}

// MaintStats is the write plane's counter snapshot: ingest queue
// health, batching behavior, the heavy/light split, and invalidation
// accounting.
type MaintStats struct {
	// Ingest queue.
	QueueDepth  int64 `json:"queue_depth"`
	QueueCap    int64 `json:"queue_cap"`
	OpsIngested int64 `json:"ops_ingested"`
	OpsApplied  int64 `json:"ops_applied"`
	OpErrors    int64 `json:"op_errors"`

	// Batching.
	Batches     int64 `json:"batches"`
	SizeFlushes int64 `json:"size_flushes"`
	AgeFlushes  int64 `json:"age_flushes"`
	MaxBatchOps int64 `json:"max_batch_ops"`
	LockWaitNs  int64 `json:"lock_wait_ns"`
	ApplyNs     int64 `json:"apply_ns"`
	MaintNs     int64 `json:"maint_ns"`
	// CoalescedOps counts ops applied through a multi-op run (point
	// ops on the same relation+column share one engine statement);
	// GroupSyncs/SyncNs count the per-batch WAL group commits.
	CoalescedOps int64 `json:"coalesced_ops"`
	GroupSyncs   int64 `json:"group_syncs"`
	SyncNs       int64 `json:"sync_ns"`

	// Heavy/light classification and local maintenance.
	KeysAffected  int64 `json:"keys_affected"`
	LightKeys     int64 `json:"light_keys"`
	HeavyKeys     int64 `json:"heavy_keys"`
	EntriesPurged int64 `json:"entries_purged"`
	TuplesPurged  int64 `json:"tuples_purged"`
	KeyGenBumps   int64 `json:"key_gen_bumps"`
	WideGenBumps  int64 `json:"wide_gen_bumps"`
	PurgeDegrades int64 `json:"purge_degrades"`

	// Cluster fan-out (router side; zero on shards).
	FanoutSent     int64 `json:"fanout_sent"`
	FanoutRetries  int64 `json:"fanout_retries"`
	FanoutDegrades int64 `json:"fanout_degrades"`
	FanoutFailures int64 `json:"fanout_failures"`
	FanoutLagNs    int64 `json:"fanout_lag_ns"`
}

// StatsReply answers MsgStats.
type StatsReply struct {
	Server ServerStats      `json:"server"`
	DB     DBStatsReply     `json:"db"`
	Engine EngineStatsReply `json:"engine"`
	// Snapshot is nil when the shard runs without warm restarts.
	Snapshot *SnapshotStats `json:"snapshot,omitempty"`
	// Maint is nil when the node runs without the write plane.
	Maint *MaintStats `json:"maint,omitempty"`
	// Freq is nil when the node runs without the frequency plane.
	Freq *FreqStats `json:"freq,omitempty"`
	// Hot is nil except on routers running hot-entry replication.
	Hot *HotStats `json:"hot,omitempty"`
}

// TraceRequest is the MsgTrace payload (JSON). Nil fields leave the
// corresponding setting unchanged, so an empty request just reads the
// current state.
type TraceRequest struct {
	// Trace turns per-query tracing on or off.
	Trace *bool `json:"trace,omitempty"`
	// SlowThresholdNs sets the slow-query log threshold; queries whose
	// total latency reaches it are logged with their full trace.
	// Negative disables the slow-query log.
	SlowThresholdNs *int64 `json:"slow_threshold_ns,omitempty"`
}

// TraceReply answers MsgTrace with the effective settings.
type TraceReply struct {
	Trace bool `json:"trace"`
	// SlowThresholdNs is the active threshold (-1 = slow log disabled).
	SlowThresholdNs int64 `json:"slow_threshold_ns"`
}

// TraceSpan is one trace span on the wire.
type TraceSpan struct {
	Kind    string `json:"kind"`
	StartNs int64  `json:"start_ns"` // offset from query begin
	DurNs   int64  `json:"dur_ns"`
	N1      int64  `json:"n1"`
	N2      int64  `json:"n2"`
	N3      int64  `json:"n3"`
	// Rows/Bytes/Allocs/Fsyncs are the span's cost bill (zero when
	// cost accounting did not run for this span).
	Rows   int64 `json:"rows,omitempty"`
	Bytes  int64 `json:"bytes,omitempty"`
	Allocs int64 `json:"allocs,omitempty"`
	Fsyncs int64 `json:"fsyncs,omitempty"`
	// Source names the peer that reported the span (empty = recorded
	// locally; a shard address for spans fanned back over the wire).
	Source string `json:"source,omitempty"`
	// Detail is the span's human-readable counter rendering.
	Detail string `json:"detail,omitempty"`
}

// SlowQuery is one slow-query log record: the query's identity, its
// closing report, and the full trace that explains where the time went.
type SlowQuery struct {
	ID     uint64 `json:"id"`
	UnixNs int64  `json:"unix_ns"`
	View   string `json:"view"`
	DurNs  int64  `json:"dur_ns"`
	// Reason says why the query was recorded: "slow" for a threshold
	// hit, or a degradation reason ("shard probe lost", "o3 failover
	// exhausted", …) for routed queries that lost part of the fleet —
	// those are recorded regardless of latency.
	Reason string      `json:"reason,omitempty"`
	Report Report      `json:"report"`
	Spans  []TraceSpan `json:"spans"`
}

// SlowlogRequest is the MsgSlowlog payload (JSON).
type SlowlogRequest struct {
	// Limit caps returned records (0 = all retained).
	Limit int `json:"limit,omitempty"`
}

// SlowlogReply answers MsgSlowlog, newest first.
type SlowlogReply struct {
	// Threshold is the active slow threshold (-1 = disabled).
	ThresholdNs int64       `json:"threshold_ns"`
	Queries     []SlowQuery `json:"queries"`
}

// HelloReply answers MsgHello when the versions agree.
type HelloReply struct {
	Version int `json:"version"`
}

// RefillReply answers MsgRefill with how many tuples the shard
// actually cached (admission policy and the F bound may decline some).
type RefillReply struct {
	Cached int `json:"cached"`
}

// UpdateReply answers MsgUpdate: how much of the batch applied, and —
// when maintenance ran — which bcp keys each view saw invalidated, so
// a router can fan the damage to the shards owning those keys. Keys
// are raw key bytes ([]byte → base64 under JSON, since bcp keys are
// binary).
type UpdateReply struct {
	// Applied counts ops that executed cleanly; Rows is the total
	// affected row count across them.
	Applied int `json:"applied"`
	Rows    int `json:"rows"`
	// Keys maps view name → affected bcp keys (maintenance runs only).
	Keys map[string][][]byte `json:"keys,omitempty"`
	// Wide marks views whose damage could not be bounded to keys — the
	// whole view's invalidation generation was bumped.
	Wide map[string]bool `json:"wide,omitempty"`
}

// HotSetReply answers MsgHotSet: how many keys the shard replicated
// and how many it dropped as stale (push Seq at or below the key's
// recorded invalidation floor).
type HotSetReply struct {
	Replicated int `json:"replicated"`
	Stale      int `json:"stale"`
	Tuples     int `json:"tuples"`
}

// HotInvalReply answers MsgHotInval.
type HotInvalReply struct {
	// Keys is how many keys had their replica floor raised (all of
	// them — the floor also gates future pushes for keys not cached).
	Keys int `json:"keys"`
}

// FilterReply answers MsgFilter with one view's presence-filter
// snapshot: the plain-bloom bitset (bit i set ⇔ counter i nonzero),
// the hash count, and the filter generation the snapshot was taken
// at. A router holds the bitset read-only and suppresses probes for
// keys it proves absent; Gen lets it discard the bitset when the
// shard resets the filter. Bits is empty when the view runs without
// the frequency plane.
type FilterReply struct {
	View   string `json:"view"`
	Bits   []byte `json:"bits,omitempty"`
	Hashes int    `json:"hashes,omitempty"`
	Gen    uint64 `json:"gen"`
	Keys   int    `json:"keys"`
}

// FreqStats is a node's frequency-plane counter snapshot, summed
// across views (nil in StatsReply when the plane is off).
type FreqStats struct {
	ProbesSuppressed     int64 `json:"probes_suppressed"`
	FilterPositives      int64 `json:"filter_positives"`
	FilterFalsePositives int64 `json:"filter_false_positives"`
	AdmitGateRejects     int64 `json:"admit_gate_rejects"`
	HotSetKeys           int64 `json:"hot_set_keys"`
	HotSetTuples         int64 `json:"hot_set_tuples"`
	HotInvalKeys         int64 `json:"hot_inval_keys"`
	// Sketch health (summed / maxed across views).
	SketchTouches   int64   `json:"sketch_touches"`
	SketchRotations int64   `json:"sketch_rotations"`
	SketchLoad      float64 `json:"sketch_load"`
}

// HotStats is a router's hot-replication counter snapshot (nil in
// FleetReply/StatsReply when the plane is off).
type HotStats struct {
	// Pushes / PushKeys / PushTuples count MsgHotSet fan-out.
	Pushes     int64 `json:"pushes"`
	PushKeys   int64 `json:"push_keys"`
	PushTuples int64 `json:"push_tuples"`
	PushFails  int64 `json:"push_fails"`
	// Invals / InvalKeys count MsgHotInval fan-out; InvalFails are
	// sends that failed after retry and degraded to a view-wide bump.
	Invals     int64 `json:"invals"`
	InvalKeys  int64 `json:"inval_keys"`
	InvalFails int64 `json:"inval_fails"`
	// ReplicaHits counts probes answered from the router's replica
	// cache without touching the owner shard.
	ReplicaHits   int64 `json:"replica_hits"`
	ReplicaKeys   int64 `json:"replica_keys"`
	ReplicaEvicts int64 `json:"replica_evicts"`
	// Suppressed counts owner probes skipped because the shard's
	// presence-filter bitset proved the key absent; FilterRefreshes
	// counts bitset refetches.
	Suppressed      int64 `json:"suppressed"`
	FilterRefreshes int64 `json:"filter_refreshes"`
	// TopKChurn is the space-saving tracker's eviction count — a
	// measure of how unstable the hot set is.
	TopKOffers int64 `json:"topk_offers"`
	TopKChurn  int64 `json:"topk_churn"`
}

// InvalidateReply answers MsgInvalidate.
type InvalidateReply struct {
	// Keys is how many per-key generations were bumped; Wide is true
	// when the whole view was invalidated instead.
	Keys int  `json:"keys"`
	Wide bool `json:"wide"`
}

// ShardMapReply is the serialized shard map: the epoch stamping every
// probe/refill, the virtual-node count, and the shard addresses in
// ring order (index = shard id).
type ShardMapReply struct {
	Epoch  uint64   `json:"epoch"`
	VNodes int      `json:"vnodes"`
	Shards []string `json:"shards"`
}

// ShardInfo is one shard's row in a router's MsgShards answer.
type ShardInfo struct {
	Addr  string `json:"addr"`
	Up    bool   `json:"up"`
	Epoch uint64 `json:"epoch"`
	Error string `json:"error,omitempty"`
	// Views carries the shard's view occupancy/hit-probability so
	// `pmvcli shards` can show per-shard cache health.
	Views []ViewInfo `json:"views,omitempty"`
	// Snapshot carries the shard's warm-restart health (nil when the
	// shard runs without snapshots).
	Snapshot *SnapshotStats `json:"snapshot,omitempty"`
}

// ShardsReply answers MsgShards on a router.
type ShardsReply struct {
	Epoch  uint64      `json:"epoch"`
	VNodes int         `json:"vnodes"`
	Shards []ShardInfo `json:"shards"`
}

// TraceGetRequest is the MsgTraceGet payload (JSON), addressed to a
// router's trace store.
type TraceGetRequest struct {
	// ID selects one assembled trace; 0 lists retained trace ids.
	ID uint64 `json:"id,omitempty"`
}

// AssembledTrace is one routed query's reconstructed cross-shard
// timeline: the router's own spans plus every shard span report,
// ordered by start offset, each tagged with its Source shard.
type AssembledTrace struct {
	ID     uint64 `json:"id"`
	View   string `json:"view"`
	UnixNs int64  `json:"unix_ns"`
	DurNs  int64  `json:"dur_ns"`
	// Reason is set when the query was recorded for degradation rather
	// than (or in addition to) latency.
	Reason string      `json:"reason,omitempty"`
	Report Report      `json:"report"`
	Spans  []TraceSpan `json:"spans"`
	// Cost is the query's aggregate resource bill across all spans.
	CostRows   int64 `json:"cost_rows"`
	CostBytes  int64 `json:"cost_bytes"`
	CostAllocs int64 `json:"cost_allocs"`
	CostFsyncs int64 `json:"cost_fsyncs"`
}

// TraceGetReply answers MsgTraceGet.
type TraceGetReply struct {
	Found bool `json:"found"`
	// Trace is the assembled trace when Found.
	Trace *AssembledTrace `json:"trace,omitempty"`
	// Recent lists retained trace ids (newest first) when ID was 0 or
	// unknown, so an operator can pick one.
	Recent []uint64 `json:"recent,omitempty"`
}

// FleetShard is one shard's row in the federated fleet view: reachable
// or not, its shard-map epoch, and — when up — its full stats reply so
// snapshot freshness and maint backlog federate through one endpoint.
type FleetShard struct {
	Addr  string      `json:"addr"`
	Up    bool        `json:"up"`
	Error string      `json:"error,omitempty"`
	Epoch uint64      `json:"epoch"`
	Stats *StatsReply `json:"stats,omitempty"`
	// Health is the router's live tail-tolerance score for this shard;
	// absent when the plane is disabled.
	Health *ShardHealth `json:"health,omitempty"`
}

// ShardHealth is the router's view of one shard's health: the latency
// digest, phi-accrual suspicion, breaker state, and the tail-plane
// counters (heartbeats, hedges, trips).
type ShardHealth struct {
	EwmaMs      float64 `json:"ewma_ms"`       // EWMA probe/heartbeat round trip
	DevMs       float64 `json:"dev_ms"`        // EWMA absolute deviation
	Phi         float64 `json:"phi"`           // phi-accrual suspicion (0 = healthy)
	ConsecFails int64   `json:"consec_fails"`  // consecutive failed interactions
	Breaker     string  `json:"breaker"`       // closed | open | half-open
	Beats       int64   `json:"beats"`         // heartbeats sent
	BeatFails   int64   `json:"beat_fails"`    // heartbeats failed
	HedgesSent  int64   `json:"hedges_sent"`   // hedge probes launched
	HedgeWins   int64   `json:"hedge_wins"`    // races the hedge won
	Trips       int64   `json:"breaker_trips"` // transitions to open
	Skips       int64   `json:"breaker_skips"` // probes skipped while open
}

// FleetReply answers MsgFleet on a router: the router's own counters
// plus every shard's scraped stats and fleet-wide aggregates.
type FleetReply struct {
	Epoch  uint64       `json:"epoch"`
	VNodes int          `json:"vnodes"`
	Router ServerStats  `json:"router"`
	Shards []FleetShard `json:"shards"`
	// Hot is the router's hot-replication counters (nil when off).
	Hot *HotStats `json:"hot,omitempty"`
	// Aggregates across reachable shards.
	ShardsUp        int     `json:"shards_up"`
	ShardsDown      int     `json:"shards_down"`
	ShardsStale     int     `json:"shards_stale"`      // epoch behind the router's
	FleetQueries    int64   `json:"fleet_queries"`     // sum of shard query counts
	FleetRows       int64   `json:"fleet_rows"`        // sum of shard row counts
	FleetErrors     int64   `json:"fleet_errors"`      // sum of shard error counts
	MaintBacklog    int64   `json:"maint_backlog"`     // sum of shard ingest queue depths
	OldestSnapshotS float64 `json:"oldest_snapshot_s"` // stalest shard snapshot age (-1 = a shard never wrote one)
}

// ViewStatsEntry flattens one view's core counters for MsgViewStats.
// (Defined here rather than reusing core.Stats so the client package
// does not link the engine.)
type ViewStatsEntry struct {
	Name               string  `json:"name"`
	Queries            int64   `json:"queries"`
	QueryHits          int64   `json:"query_hits"`
	HitProb            float64 `json:"hit_prob"`
	PartsProbed        int64   `json:"parts_probed"`
	PartHits           int64   `json:"part_hits"`
	PartialTuples      int64   `json:"partial_tuples"`
	EntriesCreated     int64   `json:"entries_created"`
	EntriesEvicted     int64   `json:"entries_evicted"`
	TuplesCached       int64   `json:"tuples_cached"`
	TuplesEvicted      int64   `json:"tuples_evicted"`
	TuplesPurged       int64   `json:"tuples_purged"`
	InsertsSeen        int64   `json:"inserts_seen"`
	DeletesSeen        int64   `json:"deletes_seen"`
	UpdatesSeen        int64   `json:"updates_seen"`
	UpdatesSkipped     int64   `json:"updates_skipped"`
	EntriesInvalidated int64   `json:"entries_invalidated"`
	TuplesInvalidated  int64   `json:"tuples_invalidated"`
	KeyGenBumps        int64   `json:"key_gen_bumps"`
	ViewGenBumps       int64   `json:"view_gen_bumps"`
	MaintTimeNs        int64   `json:"maint_time_ns"`
	LockWaitTimeNs     int64   `json:"lock_wait_time_ns"`
	O3TimeNs           int64   `json:"o3_time_ns"`
	DegradedQueries    int64   `json:"degraded_queries"`
	DeadlineQueries    int64   `json:"deadline_queries"`
	PartialOnlyQueries int64   `json:"partial_only_queries"`
	// Frequency plane (zero when off).
	ProbesSuppressed     int64 `json:"probes_suppressed,omitempty"`
	FilterPositives      int64 `json:"filter_positives,omitempty"`
	FilterFalsePositives int64 `json:"filter_false_positives,omitempty"`
	AdmitGateRejects     int64 `json:"admit_gate_rejects,omitempty"`
	HotSetKeys           int64 `json:"hot_set_keys,omitempty"`
	HotSetTuples         int64 `json:"hot_set_tuples,omitempty"`
	HotInvalKeys         int64 `json:"hot_inval_keys,omitempty"`
	// Occupancy state: live entries/tuples/bytes against the L bound.
	Entries    int     `json:"entries"`
	MaxEntries int     `json:"max_entries"`
	Occupancy  float64 `json:"occupancy"`
	Tuples     int     `json:"tuples"`
	Bytes      int     `json:"bytes"`
}
