package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"pmv/internal/cache"
	"pmv/internal/core"
	"pmv/internal/expr"
	"pmv/internal/value"
	"pmv/internal/workload"
)

// This file holds ablation experiments beyond the paper's figures,
// probing the design choices the text calls out: the entry replacement
// policy (Section 3.5), the maintenance strategy (Section 3.4 vs the
// [25] index optimization), and the F trade-off (Section 3.2).

// PolicyRow is one policy's live (non-simulated) hit rate.
type PolicyRow struct {
	Policy  cache.PolicyKind
	HitProb float64
	Partial float64 // mean partial tuples per query
}

// PolicyAblation replays the same Zipf-skewed T1 query stream against
// views differing only in replacement policy.
func PolicyAblation(env *Env, entries, queries int, seed int64) ([]PolicyRow, error) {
	if entries <= 0 {
		entries = 256
	}
	if queries <= 0 {
		queries = 1000
	}
	var out []PolicyRow
	for _, pol := range []cache.PolicyKind{cache.PolicyCLOCK, cache.Policy2Q, cache.PolicyLRU} {
		v, err := core.NewView(env.Eng, core.Config{
			Name:         fmt.Sprintf("abl_pol_%s_%d", pol, time.Now().UnixNano()),
			Template:     env.T1,
			MaxEntries:   entries,
			TuplesPerBCP: 2,
			Policy:       pol,
		})
		if err != nil {
			return nil, err
		}
		gen := newZipfQueryStream(env, seed)
		var partials int64
		for i := 0; i < queries; i++ {
			rep, err := v.ExecutePartial(gen(), func(core.Result) error { return nil })
			if err != nil {
				return nil, err
			}
			partials += int64(rep.PartialTuples)
		}
		st := v.Stats()
		out = append(out, PolicyRow{
			Policy:  pol,
			HitProb: st.HitProbability(),
			Partial: float64(partials) / float64(queries),
		})
		v.Drop()
	}
	return out, nil
}

// newZipfQueryStream yields T1 queries whose (date, supplier) pairs
// follow a heavily skewed distribution over the pair space, so a small
// working set dominates (as in the paper's simulation workload).
func newZipfQueryStream(env *Env, seed int64) func() *expr.Query {
	rng := rand.New(rand.NewSource(seed))
	days, supps := env.Cfg.Days, env.Cfg.Suppliers
	nPairs := days * supps
	// rank = N·u^5: ~50% of draws land in the top ~1% of pairs.
	draw := func() (int, int) {
		u := rng.Float64()
		rank := int(float64(nPairs) * math.Pow(u, 5))
		if rank >= nPairs {
			rank = nPairs - 1
		}
		// Scatter ranks across the pair space deterministically.
		pair := (rank*2654435761 + 17) % nPairs
		return pair % days, pair / days
	}
	return func() *expr.Query {
		d, s := draw()
		return &expr.Query{
			Template: env.T1,
			Conds: []expr.CondInstance{
				{Values: []value.Value{dateVal(d)}},
				{Values: []value.Value{value.Int(int64(s))}},
			},
		}
	}
}

// DividerRow is one divider-granularity setting for range workloads.
type DividerRow struct {
	// Dividers is the number of dividing values over the date domain.
	Dividers int
	// HitProb is the fraction of range queries with at least one
	// cached bcp.
	HitProb float64
	// PartsPerQuery is the mean number of condition parts O1 produced
	// (finer discretization → more parts per range).
	PartsPerQuery float64
	// Partial is the mean partial tuples served per query.
	Partial float64
}

// DividerAblation probes Section 3.1's discretization choice: a T1
// variant whose date condition is interval-form is served under
// different divider granularities, against a workload of week-long
// date ranges. Too-coarse dividers make every bcp huge (low reuse
// across different ranges, heavy re-checking); too-fine dividers
// explode the number of parts per query.
func DividerAblation(env *Env, queries int, seed int64) ([]DividerRow, error) {
	if queries <= 0 {
		queries = 400
	}
	// Interval-form T1: date is a range, supplier stays equality.
	tpl := workload.TemplateT1()
	tpl.Name = "t1_interval"
	tpl.Conds[0].Form = expr.IntervalForm

	var out []DividerRow
	for _, nDiv := range []int{2, 5, 10, 25, 50} {
		divs := make([]value.Value, 0, nDiv)
		for d := 0; d < nDiv; d++ {
			divs = append(divs, dateVal(d*env.Cfg.Days/nDiv))
		}
		v, err := core.NewView(env.Eng, core.Config{
			Name:         fmt.Sprintf("abl_div%d_%d", nDiv, time.Now().UnixNano()),
			Template:     tpl,
			MaxEntries:   256,
			TuplesPerBCP: 2,
			Dividers:     map[int][]value.Value{0: divs},
		})
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(seed))
		var partials, parts int64
		for i := 0; i < queries; i++ {
			// Week-long range at a skewed start day + one hot supplier.
			start := int(float64(env.Cfg.Days-7) * rng.Float64() * rng.Float64())
			q := &expr.Query{
				Template: tpl,
				Conds: []expr.CondInstance{
					{Intervals: []expr.Interval{{
						Lo: dateVal(start), Hi: dateVal(start + 7),
						LoIncl: true, HiIncl: false,
					}}},
					{Values: []value.Value{value.Int(rng.Int63n(10))}},
				},
			}
			rep, err := v.ExecutePartial(q, func(core.Result) error { return nil })
			if err != nil {
				return nil, err
			}
			partials += int64(rep.PartialTuples)
			parts += int64(rep.ConditionParts)
		}
		out = append(out, DividerRow{
			Dividers:      nDiv,
			HitProb:       v.Stats().HitProbability(),
			PartsPerQuery: float64(parts) / float64(queries),
			Partial:       float64(partials) / float64(queries),
		})
		v.Drop()
	}
	return out, nil
}

// PlannerRow compares query latency with and without ANALYZE
// statistics for a query whose template order starts at the wrong
// (unselective) relation.
type PlannerRow struct {
	Stats   bool
	Median  time.Duration
	Queries int
}

// PlannerAblation builds a skewed two-relation join where the template
// declares the large, weakly-filtered relation first, and measures
// execution latency before and after ANALYZE (which lets the planner
// drive from the small, selective side).
func PlannerAblation(env *Env, queries int) ([]PlannerRow, error) {
	if queries <= 0 {
		queries = 30
	}
	// T1's declared order is (orders, lineitem) with the date condition
	// on orders. Build queries with a very unselective date list and a
	// single-supplier condition: driving from lineitem.suppkey is far
	// cheaper once statistics exist.
	mk := func(r int) *expr.Query {
		nDates := env.Cfg.Days / 2
		dates := make([]value.Value, 0, nDates)
		for d := 0; d < nDates; d++ {
			dates = append(dates, dateVal(d))
		}
		return &expr.Query{
			Template: env.T1,
			Conds: []expr.CondInstance{
				{Values: dates},
				{Values: []value.Value{value.Int(int64(r % env.Cfg.Suppliers))}},
			},
		}
	}
	run := func() (time.Duration, error) {
		samples := make([]time.Duration, 0, queries)
		for r := 0; r < queries; r++ {
			start := time.Now()
			err := env.Eng.Execute(mk(r), func(value.Tuple) error { return nil })
			if err != nil {
				return 0, err
			}
			samples = append(samples, time.Since(start))
		}
		return median(samples), nil
	}

	// Without statistics (fresh Setup never ran ANALYZE).
	noStats, err := run()
	if err != nil {
		return nil, err
	}
	if err := env.Eng.AnalyzeAll(); err != nil {
		return nil, err
	}
	withStats, err := run()
	if err != nil {
		return nil, err
	}
	return []PlannerRow{
		{Stats: false, Median: noStats, Queries: queries},
		{Stats: true, Median: withStats, Queries: queries},
	}, nil
}

// FRow is one point of the F trade-off under a fixed byte budget.
type FRow struct {
	F          int
	MaxEntries int
	HitProb    float64
	PartialAvg float64 // partial tuples per hit query
}

// FAblation fixes a byte budget UB and sweeps F: larger F means fewer
// entries (lower hit probability) but more partial tuples per hit —
// the trade-off Section 3.2 describes.
func FAblation(env *Env, budgetBytes int, queries int, seed int64) ([]FRow, error) {
	if budgetBytes <= 0 {
		budgetBytes = 16 << 10
	}
	if queries <= 0 {
		queries = 1000
	}
	const avgTupleBytes = 100 // At estimate for T1's Ls′ rows
	var out []FRow
	for _, f := range []int{1, 2, 3, 5, 8} {
		entries := budgetBytes / (f * avgTupleBytes)
		if entries < 1 {
			entries = 1
		}
		v, err := core.NewView(env.Eng, core.Config{
			Name:         fmt.Sprintf("abl_f%d_%d", f, time.Now().UnixNano()),
			Template:     env.T1,
			MaxEntries:   entries,
			TuplesPerBCP: f,
		})
		if err != nil {
			return nil, err
		}
		gen := newZipfQueryStream(env, seed)
		var partials, hits int64
		for i := 0; i < queries; i++ {
			rep, err := v.ExecutePartial(gen(), func(core.Result) error { return nil })
			if err != nil {
				return nil, err
			}
			if rep.Hit {
				hits++
				partials += int64(rep.PartialTuples)
			}
		}
		row := FRow{F: f, MaxEntries: entries, HitProb: v.Stats().HitProbability()}
		if hits > 0 {
			row.PartialAvg = float64(partials) / float64(hits)
		}
		out = append(out, row)
		v.Drop()
	}
	return out, nil
}
