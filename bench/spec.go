package main

import (
	"time"

	"pmv/internal/workload"
)

// viewName is the PMV every workload queries (pmv.CreatePartialView
// names a view "pmv_" + template name).
const viewName = "pmv_t1"

// epochDay is the first generated orderdate, in days since the Unix
// epoch. It mirrors the unexported anchor in internal/workload; the
// drift guard fails a run whose queries return no rows, which is what
// the two parting would look like.
const epochDay = 20454

// scale sizes the shared dataset and the caches measured against it.
type scale struct {
	tpcr workload.TPCRConfig
	// poolFits / poolTight are the buffer-pool sizes, in 8 KiB pages,
	// of the workloads whose data fits the pool and of embed-churn,
	// whose pool holds about a twentieth of the data pages.
	poolFits, poolTight int
	// warmQueries is the length of the warm-up stream.
	warmQueries int
	// sample is the size of the answer-check and layer sample.
	sample int
}

// fullScale is the dataset of record: 750 customers, 7,500 orders and
// 30,000 lineitems over a 100 × 100 = 10,000-bcp (date, supplier)
// domain, about 3 result rows per bcp and 920 data and index pages.
// It is a quarter of the issue's 0.02 / 200 × 200 in both rows and
// domain, keeping rows per bcp: every run sets the system up three
// times, and the driver's cap on total run time leaves it seconds.
var fullScale = scale{
	tpcr:        workload.TPCRConfig{ScaleFactor: 0.005, Days: 100, Suppliers: 100, Nations: 25, Seed: 1, Deterministic: true},
	poolFits:    2048,
	poolTight:   48,
	warmQueries: 400,
	sample:      200,
}

// smokeScale is the -smoke dataset: 300 / 3,000 / 12,000 rows over an
// 80 × 50 = 4,000-bcp domain. It exists so a test can run all four
// workloads end to end in seconds; its numbers mean nothing.
var smokeScale = scale{
	tpcr:        workload.TPCRConfig{ScaleFactor: 0.002, Days: 80, Suppliers: 50, Nations: 25, Seed: 1},
	poolFits:    1024,
	poolTight:   24,
	warmQueries: 150,
	sample:      40,
}

func (s scale) domain() int { return s.tpcr.Days * s.tpcr.Suppliers }

// topology is how a workload reaches the view.
type topology int

const (
	// embedded calls View.ExecutePartialCtx in process.
	embedded topology = iota
	// served goes through client → loopback → server.Server.
	served
	// routed goes through client → cluster.Router → three shards.
	routed
)

// spec is one workload: a regime of the shared set-up chosen so that a
// different layer does the marginal work.
type spec struct {
	name string
	// why is the one-line reason BENCHMARK.json carries.
	why  string
	topo topology
	// alpha is the Zipf skew of the (date, supplier) key draw.
	alpha float64
	// entriesFrac is the view's MaxEntries as a share of the bcp domain.
	entriesFrac float64
	// tightPool selects scale.poolTight over scale.poolFits.
	tightPool bool
	// readers is the number of closed-loop reader sessions.
	readers int
	// writeBeside runs a paced background writer beside the readers
	// (see besideStmts). Every workload's write tail comes after them.
	writeBeside bool
	// hitMin / hitMax band core.query_hit_ratio (drift guard).
	hitMin, hitMax float64
	// poolHitMin floors buffer.hit_ratio (drift guard).
	poolHitMin float64
}

const (
	// shards is the routed workload's shard count.
	shards = 3
	// tailStmts is the ΔR statements per write request of the write
	// tail, where the writer runs alone and back to back.
	tailStmts = 64
	// besideStmts and besideThink pace serve-rw's background writer:
	// requests of besideStmts statements, the next one besideThink after
	// the previous ack. A back-to-back writer purges the view faster
	// than the reader refills it and holds the X lock half the time;
	// the reader's median first row then sits on the cliff between
	// queries served from the view (0.1 ms) and queries that waited for
	// the lock or found their entries purged (2-9 ms), and does not
	// repeat. Paced, about a fifth of the queries are slow ones.
	besideStmts = 16
	besideThink = 50 * time.Millisecond
	// maintBatch is serve-rw's maint.Plane BatchSize: one group-commit
	// fsync per batch before the ack. This is the stated flush policy.
	maintBatch = 256
	// tuplesPerBCP is the view's F.
	tuplesPerBCP = 3
	// windows is how many equal windows an interval is cut into; qps is
	// the median window, printed with the windows' MAD.
	windows = 5
	// tailFrac is the share of the interval the write-only tail takes.
	tailFrac = 0.2
)

// hotAlpha is the skew of the three hot workloads and of every write
// stream's orderkey draw.
const hotAlpha = 1.1

var specs = []spec{
	{
		name: "embed-hot",
		why:  "in-process, hot keys, data fits: core O1/O2 decides the first row and exec O3 the rest, with no wire, locks or page misses",
		topo: embedded, alpha: hotAlpha, entriesFrac: 0.5, readers: 1,
		hitMin: 0.9, hitMax: 1, poolHitMin: 0.99,
	},
	{
		name: "embed-churn",
		why:  "in-process, flat keys, view and pool hold a twentieth of the working set: the PMV mostly misses and the page path does the work",
		topo: embedded, alpha: 0.6, entriesFrac: 0.05, tightPool: true, readers: 1,
		hitMin: 0, hitMax: 0.35,
	},
	{
		name: "serve-rw",
		why:  "one reader beside a paced batched writer through pmvd on loopback with WAL group commit: maintenance purges and the S/X lock sit beside O2 probes",
		topo: served, alpha: hotAlpha, entriesFrac: 0.5, readers: 1, writeBeside: true,
		hitMin: 0.9, hitMax: 1,
	},
	{
		name: "route-hot",
		why:  "two readers through the router over three shards: scatter-gather O2 probes, routed O3 and refill fan-back on top of everything below",
		topo: routed, alpha: hotAlpha, entriesFrac: 0.5, readers: 2,
		hitMin: 0.9, hitMax: 1,
	},
}

func specByName(name string) (spec, bool) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

func (sp spec) maxEntries(sc scale) int { return int(sp.entriesFrac * float64(sc.domain())) }

func (sp spec) poolPages(sc scale) int {
	if sp.tightPool {
		return sc.poolTight
	}
	return sc.poolFits
}
