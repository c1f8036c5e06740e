package core

import (
	"sort"

	"pmv/internal/exec"
	"pmv/internal/expr"
	"pmv/internal/value"
)

// This file implements the Section 3.6 extensions: DISTINCT queries,
// aggregate (GROUP BY) queries, ORDER BY, nested EXISTS acceleration,
// and the popularity-ranking feature the conclusion points to in the
// full version [25].

// ExecutePartialDistinct answers q with SELECT DISTINCT semantics:
// only distinct tuples are served from the PMV and recorded in DS, and
// Operation O3 deduplicates the full results before the DS check —
// exactly the modification Section 3.6 describes.
func (v *View) ExecutePartialDistinct(q *expr.Query, emit func(Result) error) (QueryReport, error) {
	seen := make(map[string]bool)
	var rep QueryReport
	// Deduplicate the partial stream, then let O3's DS mechanism
	// suppress re-delivery; duplicates beyond the first occurrence of
	// a remaining tuple are filtered here too.
	inner := func(r Result) error {
		k := string(value.EncodeTuple(nil, r.Tuple))
		if seen[k] {
			return nil
		}
		seen[k] = true
		return emit(r)
	}
	rep, err := v.ExecutePartial(q, inner)
	if err != nil {
		return rep, err
	}
	return rep, nil
}

// GroupResult is one group of a partial aggregate answer.
type GroupResult struct {
	Key  value.Tuple
	Aggs value.Tuple
	// Partial is true for the early, PMV-derived aggregates; false for
	// the exact aggregates computed after full execution.
	Partial bool
}

// ExecutePartialAggregate runs an aggregate (GROUP BY) query over the
// template with the PMV protocol. Per Section 3.6, the user interface
// changes slightly: partial aggregates computed over the cached tuples
// are delivered immediately and labeled partial; exact aggregates
// follow after execution. groupBy and aggCols index into the
// template's select list Ls.
func (v *View) ExecutePartialAggregate(q *expr.Query, groupBy []int, aggs []exec.AggSpec, emit func(GroupResult) error) (QueryReport, error) {
	var partialRows, allRows []value.Tuple
	rep, err := v.ExecutePartial(q, func(r Result) error {
		if r.Partial {
			partialRows = append(partialRows, r.Tuple)
		}
		allRows = append(allRows, r.Tuple)
		return nil
	})
	if err != nil {
		return rep, err
	}
	emitAgg := func(rows []value.Tuple, partial bool) error {
		agg := &exec.HashAggregate{Child: exec.NewSliceIter(rows), GroupCols: groupBy, Aggs: aggs}
		return exec.ForEach(agg, func(t value.Tuple) error {
			return emit(GroupResult{
				Key:     t[:len(groupBy)].Clone(),
				Aggs:    t[len(groupBy):].Clone(),
				Partial: partial,
			})
		})
	}
	if len(partialRows) > 0 {
		if err := emitAgg(partialRows, true); err != nil {
			return rep, err
		}
	}
	if err := emitAgg(allRows, false); err != nil {
		return rep, err
	}
	return rep, nil
}

// ExecutePartialOrdered answers q with ORDER BY semantics: the partial
// results are sorted among themselves and delivered immediately, then
// the full sorted result follows. keys index into Ls.
func (v *View) ExecutePartialOrdered(q *expr.Query, keys []exec.SortKey, emit func(Result) error) (QueryReport, error) {
	var partial, all []value.Tuple
	rep, err := v.ExecutePartial(q, func(r Result) error {
		if r.Partial {
			partial = append(partial, r.Tuple)
		}
		all = append(all, r.Tuple)
		return nil
	})
	if err != nil {
		return rep, err
	}
	sortRows := func(rows []value.Tuple) {
		sort.SliceStable(rows, func(i, j int) bool {
			for _, k := range keys {
				c := value.Compare(rows[i][k.Col], rows[j][k.Col])
				if c == 0 {
					continue
				}
				if k.Desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
	}
	sortRows(partial)
	for _, t := range partial {
		if err := emit(Result{Tuple: t, Partial: true}); err != nil {
			return rep, err
		}
	}
	sortRows(all)
	for _, t := range all {
		if err := emit(Result{Tuple: t, Partial: false}); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// ExistsFast is the nested-query extension: for an outer tuple whose
// EXISTS subquery instantiates this view's template as q, the view can
// sometimes prove existence from cache alone. It returns (true, true)
// when a cached tuple satisfies q (EXISTS is definitely true — no
// execution needed), and (false, false) when the cache is silent and
// the subquery must be executed. Cached absence never proves
// non-existence, since the PMV is partial.
func (v *View) ExistsFast(q *expr.Query) (exists, proven bool, err error) {
	if err := q.Validate(); err != nil {
		return false, false, err
	}
	parts, err := v.coder.BreakConditions(q)
	if err != nil {
		return false, false, nil // fall back to execution
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	for pi := range parts {
		cp := &parts[pi]
		e, ok := v.entries[cp.BCPKey]
		if !ok {
			continue
		}
		for _, t := range e.tuples {
			if cp.Exact || cp.Matches(v.condValues(t)) {
				return true, true, nil
			}
		}
	}
	return false, false, nil
}

// ExecutePartialRanked answers q with the popularity-ranking extension
// from the paper's conclusion: partial results are delivered hottest
// entry first (most frequently accessed bcp first), so the results the
// user is statistically most interested in lead. Remaining results
// then stream in execution order.
func (v *View) ExecutePartialRanked(q *expr.Query, emit func(Result) error) (QueryReport, error) {
	type ranked struct {
		res Result
		acc int64
	}
	var buffered []ranked
	rep, err := v.ExecutePartial(q, func(r Result) error {
		if !r.Partial {
			// Partial phase over: flush the ranked buffer first.
			if buffered != nil {
				sort.SliceStable(buffered, func(i, j int) bool {
					return buffered[i].acc > buffered[j].acc
				})
				for _, b := range buffered {
					if err := emit(b.res); err != nil {
						return err
					}
				}
				buffered = nil
			}
			return emit(r)
		}
		buffered = append(buffered, ranked{res: r, acc: v.accessesOf(r.Tuple)})
		return nil
	})
	if err != nil {
		return rep, err
	}
	// Queries with zero remaining tuples never flushed the buffer.
	if buffered != nil {
		sort.SliceStable(buffered, func(i, j int) bool { return buffered[i].acc > buffered[j].acc })
		for _, b := range buffered {
			if err := emit(b.res); err != nil {
				return rep, err
			}
		}
	}
	return rep, nil
}

// accessesOf finds the popularity of the entry a user tuple came from.
// Approximate (the user tuple is the Ls prefix of several possible Ls′
// rows) but adequate for ordering.
func (v *View) accessesOf(userTuple value.Tuple) int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	var best int64
	for _, e := range v.entries {
		for _, t := range e.tuples {
			if value.CompareTuples(v.userTuple(t), userTuple) == 0 && e.accesses > best {
				best = e.accesses
			}
		}
	}
	return best
}

// RankedTuple is one cached tuple with its entry's popularity.
type RankedTuple struct {
	Tuple    value.Tuple
	Accesses int64
}

// HottestTuples returns up to n cached tuples ranked by their entry's
// access count — the "ranking query result tuples according to their
// popularity" extension from the conclusion.
func (v *View) HottestTuples(n int) []RankedTuple {
	v.mu.Lock()
	defer v.mu.Unlock()
	var out []RankedTuple
	for _, e := range v.entries {
		for _, t := range e.tuples {
			out = append(out, RankedTuple{Tuple: v.userTuple(t), Accesses: e.accesses})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Accesses > out[j].Accesses })
	if len(out) > n {
		out = out[:n]
	}
	return out
}
