package cluster

import (
	"sync/atomic"

	"pmv/internal/server"
	"pmv/internal/session"
	"pmv/internal/wire"
)

// Metrics is the router's counter set: session-plane counters mirroring
// the single-node server's, router-level phase histograms, and one
// ShardMetrics block per shard so an operator can see exactly which
// shard is failing probes, refusing refills, or answering slowly.
type Metrics struct {
	// Session plane and per-request cost bill, owned by the session
	// kernel.
	session.Counters

	Queries         atomic.Int64
	Rows            atomic.Int64
	PartialRows     atomic.Int64
	Shed            atomic.Int64
	DeadlineExpired atomic.Int64
	Degraded        atomic.Int64
	PartialOnly     atomic.Int64

	// DSLeftover counts queries failed because partial tuples were never
	// matched by Operation O3 — the cluster-level consistency oracle.
	DSLeftover atomic.Int64

	// Observability plane: the slow-ring recording counters. Degraded
	// records count queries the slow ring captured because they shrank
	// to a flagged subset, independent of latency.
	SlowRecorded     atomic.Int64
	DegradedRecorded atomic.Int64

	// Write plane: batches acked (all shards applied), ops/rows from the
	// primary's reply, batches failed on any shard, and the invalidation
	// fan-out's delivery ladder.
	Updates        atomic.Int64
	UpdateOps      atomic.Int64
	UpdateRows     atomic.Int64
	UpdateFailures atomic.Int64
	FanoutSent     atomic.Int64
	FanoutRetries  atomic.Int64
	FanoutDegrades atomic.Int64
	FanoutFailures atomic.Int64
	FanoutLagNs    atomic.Int64 // cumulative ack-to-delivered lag

	// Tail-tolerance plane: hedges refused by the token budget (the
	// per-shard hedge counters live in ShardMetrics).
	HedgeDenied atomic.Int64

	// Scatter times the probe fan-out (O1 + the slowest shard's O2),
	// Exec the routed O3, Total whole routed queries.
	Scatter server.Hist
	Exec    server.Hist
	Total   server.Hist

	// Shards holds one block per shard id.
	Shards []*ShardMetrics
}

// ShardMetrics counts one shard's share of the router's traffic.
type ShardMetrics struct {
	Addr string

	Probes         atomic.Int64 // probe batches sent
	ProbeRows      atomic.Int64 // Ls′ partials received
	ProbeFailures  atomic.Int64 // probe batches lost to errors (degradation)
	EpochInstalls  atomic.Int64 // shard-map installs pushed (startup + MsgErrEpoch)
	Execs          atomic.Int64 // routed O3s attempted
	ExecFailures   atomic.Int64 // routed O3s failed (failover or give-up)
	RefillsSent    atomic.Int64 // refill batches dispatched
	RefillTuples   atomic.Int64 // tuples the shard confirmed cached
	RefillFailures atomic.Int64 // refill batches lost (never retried)
	Updates        atomic.Int64 // update batches sent
	UpdateFailures atomic.Int64 // update batches the shard failed
	InvalsSent     atomic.Int64 // invalidation requests dispatched
	InvalFailures  atomic.Int64 // invalidations lost after the full ladder

	// Tail-tolerance plane (all zero when Config.TailTolerance is off).
	Beats        atomic.Int64 // heartbeat pings sent
	BeatFailures atomic.Int64 // heartbeat pings failed
	HedgesSent   atomic.Int64 // hedge probes launched
	HedgeWins    atomic.Int64 // races the hedge arm won
	BreakerTrips atomic.Int64 // closed/half-open -> open transitions
	BreakerSkips atomic.Int64 // probes skipped-and-flagged by an open breaker
	TrialProbes  atomic.Int64 // probes admitted as half-open trials

	// ProbeLatency times this shard's probe round trips.
	ProbeLatency server.Hist
}

func newMetrics(shards []string) *Metrics {
	m := &Metrics{Shards: make([]*ShardMetrics, len(shards))}
	for i, addr := range shards {
		m.Shards[i] = &ShardMetrics{Addr: addr}
	}
	return m
}

// ServerStats renders the session-plane counters in the wire's
// single-node shape, so `pmvcli stats` against a router shows the same
// dashboard it shows against a shard.
func (m *Metrics) ServerStats() wire.ServerStats {
	st := wire.ServerStats{
		Queries:         m.Queries.Load(),
		Rows:            m.Rows.Load(),
		PartialRows:     m.PartialRows.Load(),
		Shed:            m.Shed.Load(),
		DeadlineExpired: m.DeadlineExpired.Load(),
		Degraded:        m.Degraded.Load(),
		PartialOnly:     m.PartialOnly.Load(),
		Updates:         m.Updates.Load(),
		UpdateOps:       m.UpdateOps.Load(),
		UpdateRows:      m.UpdateRows.Load(),
		PartialPhase:    m.Scatter.Snapshot(),
		ExecPhase:       m.Exec.Snapshot(),
		Total:           m.Total.Snapshot(),
	}
	m.Counters.Fill(&st)
	return st
}
