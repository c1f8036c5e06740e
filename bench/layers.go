package main

import (
	"context"
	"runtime"
	"time"

	"pmv/internal/core"
	"pmv/internal/expr"
	"pmv/internal/keycodec"
	"pmv/internal/server"
	"pmv/internal/value"
	"pmv/internal/wire"
)

// histSum is a latency histogram's count and summed seconds, the two
// exact figures server.Hist exports (its quantiles are log₂ buckets,
// too coarse to compare runs with).
type histSum struct {
	n   int64
	sec float64
}

func dump(h *server.Hist) histSum {
	_, n, sec := h.Dump()
	return histSum{n, sec}
}

func (a histSum) add(b histSum) histSum { return histSum{a.n + b.n, a.sec + b.sec} }
func (a histSum) sub(b histSum) histSum { return histSum{a.n - b.n, a.sec - b.sec} }

// meanMicros is the histogram's mean observation in µs.
func (a histSum) meanMicros() float64 { return ratio(a.sec*1e6, float64(a.n)) }

// counters is one snapshot of every cumulative counter the layers
// export. Everything here is read through public accessors.
type counters struct {
	view                   core.Stats // summed over the shards' views
	poolHits, poolMisses   int64
	ioReads, ioWrites      int64
	plane                  wire.MaintStats
	srvShed, srvErrors     int64
	srvDegraded, srvExpiry int64
	costBytes              int64 // front door: the server, or the router
	srvPartial, srvExec    histSum
	srvTotal               histSum
	rtrShed, rtrDegraded   int64
	rtrErrors, rtrLeftover int64
	probes, probeFailures  int64
	execFailures           int64
	refills, refillFails   int64
	probeRTT               histSum
}

func (sys *system) snapshot() counters {
	var c counters
	for _, db := range sys.dbs {
		v, _ := db.ViewByName(viewName)
		addStats(&c.view, v.Stats())
		h, m := db.Engine().Pool().Stats()
		c.poolHits, c.poolMisses = c.poolHits+h, c.poolMisses+m
		r, w := db.Engine().IOStats()
		c.ioReads, c.ioWrites = c.ioReads+r, c.ioWrites+w
	}
	if sys.plane != nil {
		c.plane = sys.plane.Stats()
	}
	for _, srv := range sys.servers {
		m := srv.Metrics()
		c.srvShed += m.Shed.Load()
		c.srvErrors += m.Errors.Load()
		c.srvDegraded += m.Degraded.Load()
		c.srvExpiry += m.DeadlineExpired.Load()
		if sys.router == nil {
			c.costBytes += m.CostBytes.Load()
		}
		c.srvPartial = c.srvPartial.add(dump(&m.PartialPhase))
		c.srvExec = c.srvExec.add(dump(&m.ExecPhase))
		c.srvTotal = c.srvTotal.add(dump(&m.Total))
	}
	if sys.router != nil {
		m := sys.router.Metrics()
		c.costBytes = m.CostBytes.Load()
		c.rtrShed = m.Shed.Load()
		c.rtrDegraded = m.Degraded.Load()
		c.rtrErrors = m.Errors.Load()
		c.rtrLeftover = m.DSLeftover.Load()
		for _, sm := range m.Shards {
			c.probes += sm.Probes.Load()
			c.probeFailures += sm.ProbeFailures.Load()
			c.execFailures += sm.ExecFailures.Load()
			c.refills += sm.RefillsSent.Load()
			c.refillFails += sm.RefillFailures.Load()
			c.probeRTT = c.probeRTT.add(dump(&sm.ProbeLatency))
		}
	}
	return c
}

// addStats adds the view counters the benchmark reads.
func addStats(dst *core.Stats, s core.Stats) {
	dst.PartsProbed += s.PartsProbed
	dst.PartHits += s.PartHits
	dst.EntriesEvicted += s.EntriesEvicted
	dst.TuplesPurged += s.TuplesPurged
	dst.TuplesInvalidated += s.TuplesInvalidated
	dst.MaintTime += s.MaintTime
	dst.LockWaitTime += s.LockWaitTime
	dst.DegradedQueries += s.DegradedQueries
	dst.DeadlineQueries += s.DeadlineQueries
	dst.PartialOnlyQueries += s.PartialOnlyQueries
}

// sampleResult is what replaying the seeded sample outside the timed
// interval measured: the PMV-less executor, the same queries through
// the view (embedded workloads), and the row codecs.
type sampleResult struct {
	plainMicros      []float64
	pmvMicros        []float64
	execAllocPerQ    float64
	rowsPerQ         float64
	codecNsPerRow    float64
	codecAllocPerRow float64
	wireNsPerRow     float64
}

// codecRounds repeats the codec loops over the sample's rows so that
// each timing covers tens of thousands of rows.
const codecRounds = 20

// layerSample replays the sample through Engine.ExecuteProjectCtx over
// the view's expanded select list — Operation O3's exact call, with no
// PMV around it — then times the value and key codecs and the wire
// row codec over the rows it produced. On an embedded workload each
// sample query also runs through the view, alternately before and after
// its plain run, so that core.self_p50_us compares the two on the same
// queries in the same state of the caches.
func (sys *system) layerSample(seed int64) (*sampleResult, error) {
	eng := sys.dbs[0].Engine()
	view, _ := sys.dbs[0].ViewByName(viewName)
	cols := view.SelectPlus()
	st := newQueryStream(seed, saltSample, sys.sc, sys.sp.alpha)
	res := &sampleResult{}
	var rows []value.Tuple
	var ms runtime.MemStats
	var execAlloc uint64
	plain := func(conds []expr.CondInstance) error {
		q := &expr.Query{Template: sys.tpl, Conds: conds}
		runtime.ReadMemStats(&ms)
		alloc0 := ms.TotalAlloc
		t0 := time.Now()
		err := eng.ExecuteProjectCtx(context.Background(), q, cols, func(t value.Tuple) error {
			rows = append(rows, t.Clone())
			return nil
		})
		res.plainMicros = append(res.plainMicros, micros(time.Since(t0)))
		runtime.ReadMemStats(&ms)
		execAlloc += ms.TotalAlloc - alloc0
		return err
	}
	var throughView queryFn
	if sys.sp.topo == embedded {
		throughView = sys.newReader()
	}
	pmv := func(conds []expr.CondInstance) error {
		if throughView == nil {
			return nil
		}
		t0 := time.Now()
		_, err := throughView(conds, func(value.Tuple) {})
		res.pmvMicros = append(res.pmvMicros, micros(time.Since(t0)))
		return err
	}
	for i := 0; i < sys.sc.sample; i++ {
		conds := st.next()
		first, second := plain, pmv
		if i%2 == 1 {
			first, second = pmv, plain
		}
		if err := first(conds); err != nil {
			return nil, err
		}
		if err := second(conds); err != nil {
			return nil, err
		}
	}
	n := float64(sys.sc.sample)
	res.execAllocPerQ = float64(execAlloc) / n
	res.rowsPerQ = float64(len(rows)) / n
	if len(rows) == 0 {
		return res, nil
	}
	perRow := float64(len(rows) * codecRounds)

	// value + keycodec: the tuple encoding heap pages and DS keys use,
	// and the order-preserving encoding index keys use.
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	var buf []byte
	t0 := time.Now()
	for r := 0; r < codecRounds; r++ {
		for _, t := range rows {
			buf = value.EncodeTuple(buf[:0], t)
			if _, _, err := value.DecodeTuple(buf); err != nil {
				return nil, err
			}
			buf = keycodec.AppendTuple(buf[:0], t)
			if _, _, err := keycodec.DecodeTuple(buf, len(t)); err != nil {
				return nil, err
			}
		}
	}
	res.codecNsPerRow = float64(time.Since(t0).Nanoseconds()) / perRow
	runtime.ReadMemStats(&ms)
	res.codecAllocPerRow = float64(ms.TotalAlloc-alloc0) / perRow

	t0 = time.Now()
	for r := 0; r < codecRounds; r++ {
		for _, t := range rows {
			buf = wire.EncodeRow(buf[:0], t, false)
			if _, _, err := wire.DecodeRow(buf); err != nil {
				return nil, err
			}
		}
	}
	res.wireNsPerRow = float64(time.Since(t0).Nanoseconds()) / perRow
	return res, nil
}

// layerReadings derives every per-layer metric of one pass. Per-query
// figures divide the read interval's counter deltas by the queries it
// attempted; per-statement figures divide the write tail's deltas by
// the statements it acked. baseQPS is the untraced pass's qps, for the
// tracing overhead.
func (sys *system) layerReadings(p *pass, smp *sampleResult, baseQPS float64) readings {
	r := readings{}
	set := func(name string, v float64) { r.set(perLayer, name, v, 0) }
	rd, c0 := p.c1, p.c0 // read interval: c0 → c1
	wr, w0 := p.c2, p.c1 // write tail: c1 → c2
	queries, stmts := float64(p.read.Queries), p.tailStmts()

	set("codec.ns_per_row", smp.codecNsPerRow)
	set("codec.alloc_b_per_row", smp.codecAllocPerRow)
	hits, misses := float64(rd.poolHits-c0.poolHits), float64(rd.poolMisses-c0.poolMisses)
	set("buffer.hit_ratio", ratio(hits, hits+misses))
	set("buffer.fetches_per_query", ratio(hits+misses, queries))
	set("storage.reads_per_query", ratio(float64(rd.ioReads-c0.ioReads), queries))
	set("storage.writes_per_query", ratio(float64(rd.ioWrites-c0.ioWrites), queries))
	set("exec.plain_p50_us", median(smp.plainMicros))
	set("exec.alloc_b_per_query", smp.execAllocPerQ)
	set("exec.rows_per_query", smp.rowsPerQ)

	// On the routed workload the returned report describes the router's
	// phases, so its durations print under cluster.*, not core.*.
	phase1, phase2 := "core.o1o2_p50_us", "core.exec_p50_us"
	if sys.sp.topo == routed {
		phase1, phase2 = "cluster.scatter_p50_us", "cluster.exec_p50_us"
	} else {
		set("core.overhead_p50_us", median(p.column(func(s *qsample) time.Duration { return s.Extra })))
	}
	set(phase1, median(p.column(func(s *qsample) time.Duration { return s.Partial })))
	set(phase2, median(p.column(func(s *qsample) time.Duration { return s.Exec })))
	var hit, partialRows float64
	for i := range p.read.Samples {
		if p.read.Samples[i].Hit {
			hit++
		}
		partialRows += float64(p.read.Samples[i].PartialRows)
	}
	good := float64(len(p.read.Samples))
	set("core.query_hit_ratio", ratio(hit, good))
	set("core.partial_rows_per_query", ratio(partialRows, good))
	set("core.part_hit_ratio", ratio(float64(rd.view.PartHits-c0.view.PartHits), float64(rd.view.PartsProbed-c0.view.PartsProbed)))
	set("core.evictions_per_query", ratio(float64(rd.view.EntriesEvicted-c0.view.EntriesEvicted), queries))
	set("core.lock_wait_us_per_query", ratio(micros(rd.view.LockWaitTime-c0.view.LockWaitTime), queries))
	purged := wr.view.TuplesPurged - w0.view.TuplesPurged + wr.view.TuplesInvalidated - w0.view.TuplesInvalidated
	set("core.purged_per_write", ratio(float64(purged), stmts))
	set("core.maint_us_per_write", ratio(micros(wr.view.MaintTime-w0.view.MaintTime), stmts))
	set("core.degraded", float64(flagged(p.c2.view)-flagged(p.c0.view)))
	set("core.stale_retries", float64(p.read.Stale))
	if sys.sp.topo == embedded {
		set("core.self_p50_us", median(smp.pmvMicros)-median(smp.plainMicros))
	}

	if sys.plane != nil {
		a, b := wr.plane, w0.plane
		batches := float64(a.Batches - b.Batches)
		applied := float64(a.OpsApplied - b.OpsApplied)
		set("maint.stmts_per_batch", ratio(applied, batches))
		set("maint.coalesced_frac", ratio(float64(a.CoalescedOps-b.CoalescedOps), applied))
		set("maint.fsyncs_per_stmt", ratio(float64(a.GroupSyncs-b.GroupSyncs), applied))
		set("maint.sync_ms_per_batch", ratio(float64(a.SyncNs-b.SyncNs)/1e6, batches))
	}

	set("wire.ns_per_row", smp.wireNsPerRow)
	if sys.sp.topo != embedded {
		set("wire.bytes_per_query", ratio(float64(rd.costBytes-c0.costBytes), queries))
		set("server.partial_mean_us", rd.srvPartial.sub(c0.srvPartial).meanMicros())
		set("server.exec_mean_us", rd.srvExec.sub(c0.srvExec).meanMicros())
		set("server.total_mean_us", rd.srvTotal.sub(c0.srvTotal).meanMicros())
		set("server.session_self_p50_us", median(p.column(func(s *qsample) time.Duration {
			return s.Total - s.Partial - s.Exec
		})))
		set("server.shed", float64(p.c2.srvShed-p.c0.srvShed+p.c2.rtrShed-p.c0.rtrShed))
		set("server.errors", float64(p.c2.srvErrors-p.c0.srvErrors+p.c2.rtrErrors-p.c0.rtrErrors))
		set("client.redials", float64(p.read.Redials+p.tail.Redials))
		set("client.retries", float64(p.read.Retries+p.tail.Retries))
	}
	if sys.sp.topo == routed {
		set("cluster.probes_per_query", ratio(float64(rd.probes-c0.probes), queries))
		set("cluster.probe_rtt_mean_us", rd.probeRTT.sub(c0.probeRTT).meanMicros())
		set("cluster.refills_per_query", ratio(float64(rd.refills-c0.refills), queries))
		set("cluster.probe_failures", float64(p.c2.probeFailures-p.c0.probeFailures))
	}
	set("client.total_p99_us", percentile(p.column(sampleTotal), 0.99))
	set("client.first_row_p99_us", percentile(p.column(sampleFirst), 0.99))

	if p.traced {
		self, roots := selfTimes(p.spans)
		perQuery := func(ns int64) float64 { return ratio(float64(ns)/1e3, float64(roots)) }
		set("trace.root_us", perQuery(rootTime(p.spans)))
		for name, ns := range self {
			set(traceMetric[name], perQuery(ns))
		}
		if baseQPS > 0 {
			set("bench.trace_overhead_frac", 1-median(p.qpsWindows())/baseQPS)
		}
	}
	r.zeroFill(perLayer)
	return r
}

// flagged sums the view's counters of queries not answered in full
// through the view.
func flagged(s core.Stats) int64 {
	return s.DegradedQueries + s.DeadlineQueries + s.PartialOnlyQueries
}
