package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"pmv/client"
	"pmv/internal/expr"
	"pmv/internal/value"
	"pmv/internal/wire"
)

// remoteBackend runs commands against a live pmvd over the wire
// protocol, so the shell can inspect a serving database without
// stealing its directory lock.
type remoteBackend struct {
	c *client.Client
	// schemaTypes caches rel.col -> type lookups for condition parsing.
	schemaTypes map[string]map[string]value.Type
}

func openRemote(addr string) (backend, error) {
	c, err := client.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &remoteBackend{c: c, schemaTypes: make(map[string]map[string]value.Type)}, nil
}

func (r *remoteBackend) close() error { return r.c.Close() }

func (r *remoteBackend) ctx() context.Context { return context.Background() }

func (r *remoteBackend) tables() error {
	tabs, err := r.c.Tables(r.ctx())
	if err != nil {
		return err
	}
	for _, t := range tabs {
		fmt.Printf("  %s (%d columns, %d indexes, %d tuples)\n",
			t.Name, t.Columns, t.Indexes, t.Tuples)
	}
	return nil
}

func (r *remoteBackend) schema(rel string) error {
	sch, err := r.c.Schema(r.ctx(), rel)
	if err != nil {
		return err
	}
	for _, c := range sch.Columns {
		fmt.Printf("  %-16s %s\n", c.Name, c.Type)
	}
	for _, ix := range sch.Indexes {
		fmt.Printf("  index %s on (%s)\n", ix.Name, strings.Join(ix.Cols, ", "))
	}
	return nil
}

func (r *remoteBackend) count(rel string) error {
	n, err := r.c.Count(r.ctx(), rel)
	if err != nil {
		return err
	}
	fmt.Println(" ", n)
	return nil
}

func (r *remoteBackend) peek(rel string, n int) error {
	rows, err := r.c.Peek(r.ctx(), rel, n)
	if err != nil {
		return err
	}
	for _, t := range rows {
		fmt.Printf("  %v\n", t)
	}
	return nil
}

func (r *remoteBackend) views() error {
	views, err := r.c.Views(r.ctx())
	if err != nil {
		return err
	}
	for _, v := range views {
		tplName := "?"
		if v.Template != nil {
			tplName = v.Template.Name
		}
		fmt.Printf("  %s over %s: %d/%d entries, F=%d, policy=%s, %d tuples (~%d KiB)\n",
			v.Name, tplName, v.Entries, v.MaxEntries,
			v.TuplesPerBCP, v.Policy, v.Tuples, v.Bytes/1024)
	}
	return nil
}

// colType resolves rel.col through the server's schema command,
// caching per relation.
func (r *remoteBackend) colType(rel, col string) value.Type {
	cols, ok := r.schemaTypes[rel]
	if !ok {
		cols = make(map[string]value.Type)
		if sch, err := r.c.Schema(r.ctx(), rel); err == nil {
			for _, c := range sch.Columns {
				cols[c.Name] = c.Type
			}
		}
		r.schemaTypes[rel] = cols
	}
	if t, ok := cols[col]; ok {
		return t
	}
	return value.TypeString
}

func (r *remoteBackend) condSpecs(view string) ([]condSpec, error) {
	views, err := r.c.Views(r.ctx())
	if err != nil {
		return nil, err
	}
	for _, v := range views {
		if v.Name != view {
			continue
		}
		if v.Template == nil {
			return nil, fmt.Errorf("server sent no template for %q", view)
		}
		specs := make([]condSpec, len(v.Template.Conds))
		for i, ct := range v.Template.Conds {
			specs[i] = condSpec{
				label:    ct.Col.String(),
				interval: ct.Form == expr.IntervalForm,
				typ:      r.colType(ct.Col.Rel, ct.Col.Col),
			}
		}
		return specs, nil
	}
	return nil, fmt.Errorf("no view %q (try 'views')", view)
}

func (r *remoteBackend) partial(view string, conds []expr.CondInstance) error {
	start := time.Now()
	partials, total := 0, 0
	var firstPartial time.Duration
	rep, err := r.c.ExecutePartial(r.ctx(), view, conds, func(row client.Row) error {
		total++
		tag := "      "
		if row.Partial {
			if partials == 0 {
				firstPartial = time.Since(start)
			}
			partials++
			tag = "cached"
		}
		if total <= 20 {
			fmt.Printf("  [%s] %v\n", tag, row.Tuple)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if total > 20 {
		fmt.Printf("  ... %d more rows\n", total-20)
	}
	fmt.Printf("  %d rows (%d from cache, first after %v); total %v; hit=%v",
		total, partials, firstPartial, time.Since(start), rep.Hit)
	if rep.Shed {
		fmt.Print("; SHED (server saturated, cached rows only)")
	}
	if rep.DeadlineExpired {
		fmt.Print("; deadline expired (result may be incomplete)")
	}
	fmt.Println()
	return nil
}

func (r *remoteBackend) analyze() error    { return r.c.Analyze(r.ctx()) }
func (r *remoteBackend) checkpoint() error { return r.c.Checkpoint(r.ctx()) }

func (r *remoteBackend) stats() error {
	st, err := r.c.Stats(r.ctx())
	if err != nil {
		return err
	}
	s := st.Server
	fmt.Printf("  sessions: %d total, %d active\n", s.SessionsTotal, s.SessionsActive)
	fmt.Printf("  queries: %d (%d shed, %d deadline-expired, %d degraded, %d errors)\n",
		s.Queries, s.Shed, s.DeadlineExpired, s.Degraded, s.Errors)
	fmt.Printf("  rows: %d (%d from cache)\n", s.Rows, s.PartialRows)
	fmt.Printf("  latency p50/p99: partial %v/%v, exec %v/%v, total %v/%v\n",
		time.Duration(s.PartialPhase.P50Ns), time.Duration(s.PartialPhase.P99Ns),
		time.Duration(s.ExecPhase.P50Ns), time.Duration(s.ExecPhase.P99Ns),
		time.Duration(s.Total.P50Ns), time.Duration(s.Total.P99Ns))
	fmt.Printf("  buffer pool: %d hits, %d misses\n", st.DB.BufferHits, st.DB.BufferMisses)
	fmt.Printf("  physical io: %d reads, %d writes\n", st.DB.PhysicalReads, st.DB.PhysicalWrites)
	if s.Updates > 0 || s.Invalidations > 0 {
		fmt.Printf("  writes: %d batches, %d ops, %d rows; %d invalidation requests\n",
			s.Updates, s.UpdateOps, s.UpdateRows, s.Invalidations)
		fmt.Printf("  dml: %d statements found their rows by index, %d by heap scan\n",
			st.Engine.DMLLocated, st.Engine.DMLScanned)
	}
	if ss := st.Snapshot; ss != nil {
		fmt.Printf("  snapshot: %s\n", snapshotLine(ss))
		fmt.Printf("  snapshot boot: %s\n", ss.LastBoot)
	}
	if ms := st.Maint; ms != nil {
		fmt.Printf("  maint: queue %d/%d, %d batches (max %d ops, %d cut at the batch size)\n",
			ms.QueueDepth, ms.QueueCap, ms.Batches, ms.MaxBatchOps, ms.SizeFlushes)
	}
	if fs := st.Freq; fs != nil {
		fmt.Printf("  freq: %s\n", freqLine(fs))
	}
	if hs := st.Hot; hs != nil {
		printHot(hs)
	}
	return nil
}

// freqLine renders one shard's frequency-plane counters compactly.
func freqLine(fs *wire.FreqStats) string {
	fpr := 0.0
	if fs.FilterPositives > 0 {
		fpr = float64(fs.FilterFalsePositives) / float64(fs.FilterPositives)
	}
	return fmt.Sprintf("%d probes suppressed, filter FPR %.4f (%d/%d), %d admissions gated; hot-set %d keys/%d tuples in, %d inval keys; sketch %d touches, %d rotations, load %.3f",
		fs.ProbesSuppressed, fpr, fs.FilterFalsePositives, fs.FilterPositives,
		fs.AdmitGateRejects, fs.HotSetKeys, fs.HotSetTuples, fs.HotInvalKeys,
		fs.SketchTouches, fs.SketchRotations, fs.SketchLoad)
}

// printHot renders a router's hot-replication counters.
func printHot(hs *wire.HotStats) {
	fmt.Printf("  hot: %d replica hits, %d keys replicated, %d evicts, %d probes suppressed\n",
		hs.ReplicaHits, hs.ReplicaKeys, hs.ReplicaEvicts, hs.Suppressed)
	fmt.Printf("  hot push: %d rounds, %d keys, %d tuples (%d failed); inval: %d rounds, %d keys (%d degraded)\n",
		hs.Pushes, hs.PushKeys, hs.PushTuples, hs.PushFails,
		hs.Invals, hs.InvalKeys, hs.InvalFails)
	fmt.Printf("  hot tracker: %d offers, %d churn; %d filter refreshes\n",
		hs.TopKOffers, hs.TopKChurn, hs.FilterRefreshes)
}

// maint renders the write plane's full counter set (`pmvcli maint`).
func (r *remoteBackend) maint() error {
	st, err := r.c.Stats(r.ctx())
	if err != nil {
		return err
	}
	ms := st.Maint
	if ms == nil {
		fmt.Println("  no write plane (server runs per-statement maintenance; start pmvd with -maint)")
		return nil
	}
	fmt.Printf("  queue: %d/%d deep; %d ops ingested, %d applied, %d errors\n",
		ms.QueueDepth, ms.QueueCap, ms.OpsIngested, ms.OpsApplied, ms.OpErrors)
	fmt.Printf("  batches: %d (%d cut at the batch size with requests queued, max %d ops)\n",
		ms.Batches, ms.SizeFlushes, ms.MaxBatchOps)
	fmt.Printf("  group commit: %d coalesced ops, %d syncs in %v\n",
		ms.CoalescedOps, ms.GroupSyncs, time.Duration(ms.SyncNs))
	fmt.Printf("  time: lock-wait %v, apply %v, maintain %v\n",
		time.Duration(ms.LockWaitNs), time.Duration(ms.ApplyNs), time.Duration(ms.MaintNs))
	fmt.Printf("  purge: %d keys, %d entries / %d tuples purged, %d wide bumps\n",
		ms.KeysAffected, ms.EntriesPurged, ms.TuplesPurged, ms.WideGenBumps)
	if ms.FanoutSent > 0 || ms.FanoutFailures > 0 {
		lag := time.Duration(0)
		if ms.FanoutSent > 0 {
			lag = time.Duration(ms.FanoutLagNs / ms.FanoutSent)
		}
		fmt.Printf("  fan-out: %d sent (%d epoch retries, %d degrades, %d lost), mean lag %v\n",
			ms.FanoutSent, ms.FanoutRetries, ms.FanoutDegrades, ms.FanoutFailures, lag.Round(time.Microsecond))
	}
	return nil
}

// snapshotLine renders one shard's warm-restart health compactly.
func snapshotLine(ss *wire.SnapshotStats) string {
	age := "never written"
	if ss.AgeSeconds >= 0 {
		age = fmt.Sprintf("age %s, %d B in %v",
			(time.Duration(ss.AgeSeconds * float64(time.Second))).Round(time.Millisecond),
			ss.LastWriteBytes, time.Duration(ss.LastWriteNs).Round(time.Microsecond))
	}
	return fmt.Sprintf("%s; %d writes (%d errors), warm-admitted %d entries/%d tuples, rejected %d stale + %d corrupt, epoch %d",
		age, ss.Writes, ss.WriteErrors, ss.WarmEntries, ss.WarmTuples,
		ss.StaleRejects, ss.CorruptRejects, ss.Epoch)
}

func (r *remoteBackend) viewstats() error {
	entries, err := r.c.ViewStats(r.ctx())
	if err != nil {
		return err
	}
	for _, e := range entries {
		fmt.Printf("  %s:\n", e.Name)
		fmt.Printf("    queries: %d (%d hits, p=%.3f, %d degraded, %d deadline, %d partial-only)\n",
			e.Queries, e.QueryHits, e.HitProb,
			e.DegradedQueries, e.DeadlineQueries, e.PartialOnlyQueries)
		fmt.Printf("    parts: %d probed; tuples: %d served, %d cached, %d evicted, %d purged\n",
			e.PartsProbed, e.PartialTuples, e.TuplesCached, e.TuplesEvicted, e.TuplesPurged)
		fmt.Printf("    maintenance: %d deletes, %d updates (%d skipped) in %v\n",
			e.DeletesSeen, e.UpdatesSeen, e.UpdatesSkipped, time.Duration(e.MaintTimeNs))
		fmt.Printf("    time: lock-wait %v, O3 %v\n",
			time.Duration(e.LockWaitTimeNs), time.Duration(e.O3TimeNs))
		fmt.Printf("    occupancy: %d/%d entries (%.1f%%), %d tuples (~%d KiB)\n",
			e.Entries, e.MaxEntries, 100*e.Occupancy, e.Tuples, e.Bytes/1024)
	}
	return nil
}

// trace implements `trace [on|off|slow <dur>|slow off]`. With no
// arguments it shows the current settings.
func (r *remoteBackend) trace(args []string) error {
	var req wire.TraceRequest
	for i := 0; i < len(args); i++ {
		switch args[i] {
		case "on", "off":
			on := args[i] == "on"
			req.Trace = &on
		case "slow":
			if i+1 >= len(args) {
				fmt.Println("usage: trace slow <duration|off>")
				return nil
			}
			i++
			var ns int64
			if args[i] == "off" {
				ns = -1
			} else {
				d, err := time.ParseDuration(args[i])
				if err != nil {
					fmt.Printf("bad duration %q (try 10ms, 1s)\n", args[i])
					return nil
				}
				ns = int64(d)
			}
			req.SlowThresholdNs = &ns
		default:
			fmt.Println("usage: trace [on|off] [slow <duration|off>]")
			return nil
		}
	}
	rep, err := r.c.Trace(r.ctx(), req)
	if err != nil {
		return err
	}
	slow := "off"
	if rep.SlowThresholdNs >= 0 {
		slow = time.Duration(rep.SlowThresholdNs).String()
	}
	fmt.Printf("  trace=%v slow-query-log=%s\n", rep.Trace, slow)
	return nil
}

func (r *remoteBackend) slowlog(n int) error {
	rep, err := r.c.Slowlog(r.ctx(), n)
	if err != nil {
		return err
	}
	if rep.ThresholdNs < 0 {
		fmt.Println("  slow-query log is off (enable: trace slow <duration>)")
	}
	if len(rep.Queries) == 0 {
		fmt.Println("  no slow queries recorded")
		return nil
	}
	for _, q := range rep.Queries {
		reason := ""
		if q.Reason != "" && q.Reason != "slow" {
			reason = "; " + q.Reason
		}
		fmt.Printf("  #%d %s view=%s %v (%d rows, %d cached%s%s)\n",
			q.ID, time.Unix(0, q.UnixNs).Format("15:04:05.000"), q.View,
			time.Duration(q.DurNs), q.Report.TotalTuples, q.Report.PartialTuples,
			shedTag(q.Report.Shed), reason)
		printSpans(q.Spans)
	}
	return nil
}

// printSpans renders one trace's span table, tagging spans reported by
// other nodes with their source.
func printSpans(spans []wire.TraceSpan) {
	for _, sp := range spans {
		src := ""
		if sp.Source != "" {
			src = " @" + sp.Source
		}
		fmt.Printf("    %-9s +%-12v %-12v %s%s\n",
			sp.Kind, time.Duration(sp.StartNs), time.Duration(sp.DurNs), sp.Detail, src)
	}
}

// traceGet implements `trace <id>` and `trace recent` against a
// pmvrouter's assembled-trace store.
func (r *remoteBackend) traceGet(id uint64) error {
	rep, err := r.c.TraceGet(r.ctx(), id)
	if err != nil {
		return fmt.Errorf("%w (trace <id> needs -addr of a pmvrouter with tracing on)", err)
	}
	if !rep.Found {
		if id != 0 {
			fmt.Printf("  trace %d not retained\n", id)
		}
		if len(rep.Recent) == 0 {
			fmt.Println("  no traces retained (enable: trace on, then run queries)")
			return nil
		}
		fmt.Print("  retained (newest first):")
		for _, rid := range rep.Recent {
			fmt.Printf(" %d", rid)
		}
		fmt.Println()
		return nil
	}
	at := rep.Trace
	fmt.Printf("  trace %d view=%s %s %v\n", at.ID, at.View,
		time.Unix(0, at.UnixNs).Format("15:04:05.000"), time.Duration(at.DurNs))
	if at.Reason != "" {
		fmt.Printf("  recorded: %s\n", at.Reason)
	}
	fmt.Printf("  report: %d rows (%d cached), hit=%v degraded=%v shed=%v\n",
		at.Report.TotalTuples, at.Report.PartialTuples,
		at.Report.Hit, at.Report.Degraded, at.Report.Shed)
	fmt.Printf("  cost: %d rows, %d wire bytes, %d heap bytes, %d fsyncs\n",
		at.CostRows, at.CostBytes, at.CostAllocs, at.CostFsyncs)
	printSpans(at.Spans)
	return nil
}

// fleet renders a router's federated fleet view.
func (r *remoteBackend) fleet() error {
	fl, err := r.c.Fleet(r.ctx())
	if err != nil {
		return fmt.Errorf("%w (fleet needs -addr of a pmvrouter)", err)
	}
	fmt.Printf("  fleet: epoch %d, %d shards (%d up, %d down, %d stale)\n",
		fl.Epoch, len(fl.Shards), fl.ShardsUp, fl.ShardsDown, fl.ShardsStale)
	fmt.Printf("  router: %d queries, %d rows, %d errors, %d traces sampled\n",
		fl.Router.Queries, fl.Router.Rows, fl.Router.Errors, fl.Router.TracesSampled)
	if hs := fl.Hot; hs != nil {
		fmt.Printf("  hot: %d replica hits, %d keys replicated, %d suppressed; pushes %d (%d failed), invals %d (%d degraded)\n",
			hs.ReplicaHits, hs.ReplicaKeys, hs.Suppressed,
			hs.Pushes, hs.PushFails, hs.Invals, hs.InvalFails)
	}
	fmt.Printf("  shards: %d queries, %d rows, %d errors; maint backlog %d\n",
		fl.FleetQueries, fl.FleetRows, fl.FleetErrors, fl.MaintBacklog)
	oldest := "never"
	if fl.OldestSnapshotS >= 0 {
		oldest = time.Duration(fl.OldestSnapshotS * float64(time.Second)).Round(time.Second).String()
	}
	fmt.Printf("  oldest snapshot: %s\n", oldest)
	for i, fs := range fl.Shards {
		if !fs.Up {
			fmt.Printf("  [%d] %-22s DOWN (%s)\n", i, fs.Addr, fs.Error)
			if h := fs.Health; h != nil {
				fmt.Printf("      health: breaker %s, phi %.1f, %d consec fails, trips %d, skips %d\n",
					h.Breaker, h.Phi, h.ConsecFails, h.Trips, h.Skips)
			}
			continue
		}
		state := "in sync"
		if fs.Epoch != fl.Epoch {
			state = fmt.Sprintf("epoch %d (stale)", fs.Epoch)
		}
		line := fmt.Sprintf("  [%d] %-22s up, %s", i, fs.Addr, state)
		if st := fs.Stats; st != nil {
			line += fmt.Sprintf("; %d queries, %d rows, %d errors",
				st.Server.Queries, st.Server.Rows, st.Server.Errors)
			if st.Maint != nil {
				line += fmt.Sprintf(", maint queue %d/%d", st.Maint.QueueDepth, st.Maint.QueueCap)
			}
			if st.Snapshot != nil && st.Snapshot.AgeSeconds >= 0 {
				line += fmt.Sprintf(", snapshot %s old",
					time.Duration(st.Snapshot.AgeSeconds*float64(time.Second)).Round(time.Second))
			}
			if st.Freq != nil {
				line += fmt.Sprintf(", freq %d suppressed/%d gated",
					st.Freq.ProbesSuppressed, st.Freq.AdmitGateRejects)
			}
		}
		fmt.Println(line)
		if h := fs.Health; h != nil {
			hline := fmt.Sprintf("      health: breaker %s, ewma %.2fms ±%.2fms, phi %.1f",
				h.Breaker, h.EwmaMs, h.DevMs, h.Phi)
			if h.ConsecFails > 0 {
				hline += fmt.Sprintf(", %d consec fails", h.ConsecFails)
			}
			hline += fmt.Sprintf("; beats %d (%d failed)", h.Beats, h.BeatFails)
			if h.HedgesSent > 0 {
				hline += fmt.Sprintf(", hedges %d (%d won)", h.HedgesSent, h.HedgeWins)
			}
			if h.Trips > 0 {
				hline += fmt.Sprintf(", trips %d, skips %d", h.Trips, h.Skips)
			}
			fmt.Println(hline)
		}
	}
	return nil
}

func shedTag(shed bool) string {
	if shed {
		return ", shed"
	}
	return ""
}

func (r *remoteBackend) shards() error {
	rep, err := r.c.Shards(r.ctx())
	if err != nil {
		return fmt.Errorf("%w (shards needs -addr of a pmvrouter)", err)
	}
	fmt.Printf("  shard map epoch %d, %d shards, %d vnodes/shard\n",
		rep.Epoch, len(rep.Shards), rep.VNodes)
	for i, si := range rep.Shards {
		if !si.Up {
			fmt.Printf("  [%d] %-22s DOWN (%s)\n", i, si.Addr, si.Error)
			continue
		}
		state := "in sync"
		if si.Epoch != rep.Epoch {
			state = fmt.Sprintf("epoch %d (stale)", si.Epoch)
		}
		fmt.Printf("  [%d] %-22s up, %s\n", i, si.Addr, state)
		for _, v := range si.Views {
			fmt.Printf("      %s: %d/%d entries, %d tuples, hit-prob %.3f\n",
				v.Name, v.Entries, v.MaxEntries, v.Tuples, v.HitProb)
		}
		if si.Snapshot != nil {
			fmt.Printf("      snapshot: %s\n", snapshotLine(si.Snapshot))
		}
	}
	return nil
}
