package core

import "time"

// Stats aggregates a view's lifetime counters. All fields are
// cumulative; read them via View.Stats which returns a copy.
type Stats struct {
	// Queries is the number of ExecutePartial calls completed.
	Queries int64
	// QueryHits counts queries for which at least one probed bcp was
	// present — the paper's hit-probability numerator.
	QueryHits int64
	// PartsProbed counts condition parts generated by O1.
	PartsProbed int64
	// PartHits counts probed parts whose containing bcp was present.
	PartHits int64
	// PartialTuples counts tuples served from the view (O2).
	PartialTuples int64
	// CompleteParts counts parts O2 served whole, which O3 need not
	// cover, and O3Skipped the queries all of whose parts were, so that
	// O3 did not run.
	CompleteParts int64
	O3Skipped     int64
	// EntriesCreated / EntriesEvicted track entry churn.
	EntriesCreated int64
	EntriesEvicted int64
	// TuplesCached / TuplesEvicted / TuplesPurged track tuple churn
	// (purged = removed by maintenance).
	TuplesCached  int64
	TuplesEvicted int64
	TuplesPurged  int64
	// EntriesInvalidated / TuplesInvalidated count the entries and
	// tuples InvalidateKeys and InvalidateAll removed.
	EntriesInvalidated int64
	TuplesInvalidated  int64
	// KeyGenBumps counts the keys InvalidateKeys was asked to remove
	// and ViewGenBumps the InvalidateAll calls (named as the wire and
	// JSON spell them).
	KeyGenBumps  int64
	ViewGenBumps int64
	// InsertsSeen / DeletesSeen / UpdatesSeen / UpdatesSkipped count
	// maintenance notifications (UpdatesSkipped = irrelevant-attribute
	// updates short-circuited by the Section 3.4 optimization).
	InsertsSeen    int64
	DeletesSeen    int64
	UpdatesSeen    int64
	UpdatesSkipped int64
	// MaintTime is the cumulative wall time spent in delete/update
	// maintenance (purge work), for the maintenance-cost ablation.
	MaintTime time.Duration
	// LockWaitTime is the cumulative time queries spent waiting for the
	// view's S lock (Section 3.6) — the observable cost of maintenance
	// contention from the query side.
	LockWaitTime time.Duration
	// O3Time is the cumulative time spent in Operation O3 (query
	// execution), the denominator for the paper's overhead-ratio story.
	O3Time time.Duration
	// DegradedQueries counts queries answered without the view because
	// its S lock timed out (complete results, no partial delivery).
	DegradedQueries int64
	// DeadlineQueries counts queries whose context deadline expired
	// before O3 finished: O2 partials were delivered, the tail was
	// traded for bounded response time.
	DeadlineQueries int64
	// PartialOnlyQueries counts queries answered by O1+O2 alone (the
	// service layer's load-shedding path).
	PartialOnlyQueries int64

	// Frequency plane (zero when off). ProbesSuppressed counts probes
	// skipped because the presence filter proved the key absent;
	// FilterPositives counts probes the filter let through, and
	// FilterFalsePositives the subset that then found no live entry —
	// FalsePositives/Positives is the measured FPR. AdmitGateRejects
	// counts keys refused caching for falling below the popularity
	// threshold. HotSetKeys/HotSetTuples/HotInvalKeys are the shard
	// half of hot-entry replication.
	ProbesSuppressed     int64
	FilterPositives      int64
	FilterFalsePositives int64
	AdmitGateRejects     int64
	HotSetKeys           int64
	HotSetTuples         int64
	HotInvalKeys         int64
}

// HitProbability returns QueryHits/Queries (0 when no queries ran).
func (s Stats) HitProbability() float64 {
	if s.Queries == 0 {
		return 0
	}
	return float64(s.QueryHits) / float64(s.Queries)
}

// Stats returns a snapshot of the view's counters.
func (v *View) Stats() Stats {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.stats
}

// ResetStats zeroes the counters (used between experiment phases, e.g.
// after cache warm-up).
func (v *View) ResetStats() {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.stats = Stats{}
}

// statsQueryLocked counts a query that ran O3 to its end when ran is
// set.
func (v *View) statsQueryLocked(rep *QueryReport, ran bool) {
	v.stats.Queries++
	if rep.Hit {
		v.stats.QueryHits++
	}
	v.stats.CompleteParts += int64(rep.CompleteParts)
	if rep.CompleteParts > 0 && !ran && !rep.PartialOnly && !rep.DeadlineExpired {
		v.stats.O3Skipped++
	}
	v.stats.O3Time += rep.ExecLatency
}
