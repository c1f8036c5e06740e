package server

import (
	"math/bits"
	"sync/atomic"
	"time"

	"pmv/internal/obs"
	"pmv/internal/session"
	"pmv/internal/wire"
)

// Hist is a lock-free log-scale latency histogram: bucket i holds
// observations whose nanosecond count has bit length i (so bucket
// boundaries double — ~1.5 significant digits of resolution, which is
// plenty for p50/p99 trend tracking at zero coordination cost).
type Hist struct {
	buckets [64]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
}

// Observe records one duration.
func (h *Hist) Observe(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.buckets[bits.Len64(uint64(ns))].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		old := h.max.Load()
		if ns <= old || h.max.CompareAndSwap(old, ns) {
			return
		}
	}
}

// quantile estimates the q-quantile as the midpoint of the bucket the
// quantile rank falls into (clamped to the observed maximum). Bucket i
// covers nanosecond counts of bit length i — [2^(i-1), 2^i) for i ≥ 1,
// exactly {0} for i = 0 — so the midpoint halves the worst-case error
// of reporting the bucket's upper bound, and a distribution that sits
// on one value is estimated within a factor of ~1.5 instead of ~2.
func (h *Hist) quantile(q float64, total int64) int64 {
	if total == 0 {
		return 0
	}
	rank := int64(q*float64(total-1)) + 1
	var seen int64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen >= rank {
			if i == 0 {
				return 0
			}
			lo := int64(1) << uint(i-1)
			hi := int64(1)<<uint(i) - 1
			mid := lo + (hi-lo)/2
			if m := h.max.Load(); mid > m {
				mid = m
			}
			return mid
		}
	}
	return h.max.Load()
}

// Dump exports the histogram as cumulative Prometheus buckets in
// seconds, up to the highest occupied bucket; the writer adds +Inf.
func (h *Hist) Dump() (buckets []obs.Bucket, count int64, sumSeconds float64) {
	top := -1
	var counts [64]int64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		if counts[i] > 0 {
			top = i
		}
	}
	var cum int64
	for i := 0; i <= top; i++ {
		cum += counts[i]
		le := float64(int64(1)<<uint(i)-1) / 1e9
		buckets = append(buckets, obs.Bucket{LE: le, Cum: cum})
	}
	return buckets, h.count.Load(), float64(h.sum.Load()) / 1e9
}

// Snapshot summarizes the histogram. Concurrent Observes may tear the
// totals slightly; the summary is for monitoring, not accounting.
func (h *Hist) Snapshot() wire.HistSnapshot {
	total := h.count.Load()
	s := wire.HistSnapshot{Count: total, MaxNs: h.max.Load()}
	if total > 0 {
		s.MeanNs = h.sum.Load() / total
		s.P50Ns = h.quantile(0.50, total)
		s.P90Ns = h.quantile(0.90, total)
		s.P99Ns = h.quantile(0.99, total)
	}
	return s
}

// Metrics is the server's counter set. All fields are updated with
// atomics from session goroutines and snapshotted by the stats
// command.
type Metrics struct {
	// Session plane: sessions, per-request errors, the network
	// failure-mode counters and the per-request cost bill, owned by the
	// session kernel.
	session.Counters

	Queries         atomic.Int64
	Rows            atomic.Int64
	PartialRows     atomic.Int64
	Shed            atomic.Int64
	DeadlineExpired atomic.Int64
	Degraded        atomic.Int64
	PartialOnly     atomic.Int64

	// Write plane: batches accepted, ops/rows applied, invalidation
	// requests honored.
	Updates       atomic.Int64
	UpdateOps     atomic.Int64
	UpdateRows    atomic.Int64
	Invalidations atomic.Int64

	// CostFsyncs is the WAL fsyncs billed to traced write batches.
	CostFsyncs atomic.Int64

	PartialPhase Hist // O1+O2: time to the last partial row
	ExecPhase    Hist // O3: query execution
	Total        Hist // whole query, admission wait included
}

// Snapshot captures every counter for the stats reply.
func (m *Metrics) Snapshot() wire.ServerStats {
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
		Invalidations:   m.Invalidations.Load(),
		CostFsyncs:      m.CostFsyncs.Load(),
		PartialPhase:    m.PartialPhase.Snapshot(),
		ExecPhase:       m.ExecPhase.Snapshot(),
		Total:           m.Total.Snapshot(),
	}
	m.Counters.Fill(&st)
	return st
}
