package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"pmv/internal/cache"
	"pmv/internal/catalog"
	"pmv/internal/engine"
	"pmv/internal/expr"
	"pmv/internal/freq"
	"pmv/internal/value"
)

// fuzzWorld is one randomly generated schema + template + view.
type fuzzWorld struct {
	eng  *engine.Engine
	tpl  *expr.Template
	view *View
	rng  *rand.Rand
	// domains per condition (values drawn from [0, domain))
	domains []int64
	// per relation: join-key domain
	joinDomain int64
	hotSeq     uint64
	// byBCP is every bcp's answer as sorted tuple strings; nil after a
	// change of the data.
	byBCP map[string][]string
}

// buildFuzzWorld creates 2 or 3 relations R0 ⋈ R1 (⋈ R2) with integer
// columns, one selection condition per relation (random form), and a
// randomly configured view, with the frequency plane on for even
// seeds.
func buildFuzzWorld(t *testing.T, seed int64) *fuzzWorld {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	eng, err := engine.Open(t.TempDir(), engine.Options{
		BufferPoolPages: 64,
		EnableWAL:       rng.Intn(2) == 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })

	nRels := 2 + rng.Intn(2)
	w := &fuzzWorld{eng: eng, rng: rng, joinDomain: int64(10 + rng.Intn(30))}
	tpl := &expr.Template{Name: fmt.Sprintf("fuzz%d", seed)}

	for ri := 0; ri < nRels; ri++ {
		name := fmt.Sprintf("r%d", ri)
		// Columns: id, jk (join key toward next relation), jp (join key
		// from previous), sel (condition attribute), payload.
		_, err := eng.CreateRelation(name, catalog.NewSchema(
			catalog.Col("id", value.TypeInt),
			catalog.Col("jk", value.TypeInt),
			catalog.Col("jp", value.TypeInt),
			catalog.Col("sel", value.TypeInt),
			catalog.Col("payload", value.TypeInt),
		))
		if err != nil {
			t.Fatal(err)
		}
		// Indexes on a random subset (planner must cope either way).
		if rng.Intn(4) != 0 {
			eng.CreateIndex("", name, "sel")
		}
		if rng.Intn(4) != 0 {
			eng.CreateIndex("", name, "jp")
		}
		tpl.Relations = append(tpl.Relations, name)
		tpl.Select = append(tpl.Select,
			expr.ColumnRef{Rel: name, Col: "id"},
			expr.ColumnRef{Rel: name, Col: "payload"},
		)
		if ri > 0 {
			tpl.Join = append(tpl.Join, expr.JoinPred{
				Left:  expr.ColumnRef{Rel: fmt.Sprintf("r%d", ri-1), Col: "jk"},
				Right: expr.ColumnRef{Rel: name, Col: "jp"},
			})
		}
		form := expr.EqualityForm
		if rng.Intn(3) == 0 {
			form = expr.IntervalForm
		}
		tpl.Conds = append(tpl.Conds, expr.CondTemplate{
			Col: expr.ColumnRef{Rel: name, Col: "sel"}, Form: form,
		})
		w.domains = append(w.domains, int64(4+rng.Intn(12)))
	}
	if err := tpl.Validate(); err != nil {
		t.Fatal(err)
	}
	w.tpl = tpl

	// Data.
	for ri := 0; ri < nRels; ri++ {
		rows := 100 + rng.Intn(200)
		for i := 0; i < rows; i++ {
			w.insertRow(t, ri)
		}
	}

	// Dividers for interval conditions.
	dividers := map[int][]value.Value{}
	for ci, ct := range tpl.Conds {
		if ct.Form != expr.IntervalForm {
			continue
		}
		k := 1 + rng.Intn(4)
		var ds []value.Value
		for j := 0; j < k; j++ {
			ds = append(ds, value.Int(rng.Int63n(w.domains[ci])))
		}
		dividers[ci] = ds
	}

	policies := []cache.PolicyKind{cache.PolicyCLOCK, cache.Policy2Q, cache.PolicyLRU}
	view, err := NewView(eng, Config{
		Template:     tpl,
		MaxEntries:   4 + rng.Intn(60),
		TuplesPerBCP: 1 + rng.Intn(5),
		Policy:       policies[rng.Intn(len(policies))],
		Dividers:     dividers,
	})
	if err != nil {
		t.Fatal(err)
	}
	if seed%2 == 0 {
		// A window far longer than the test keeps the sketch from
		// rotating mid-run.
		view.EnableFreq(freq.Config{Window: time.Hour})
	}
	w.view = view
	return w
}

func (w *fuzzWorld) insertRow(t *testing.T, ri int) {
	t.Helper()
	w.byBCP = nil
	err := w.eng.Insert(fmt.Sprintf("r%d", ri), value.Tuple{
		value.Int(w.rng.Int63n(1 << 40)),
		value.Int(w.rng.Int63n(w.joinDomain)),
		value.Int(w.rng.Int63n(w.joinDomain)),
		value.Int(w.rng.Int63n(w.domains[ri])),
		value.Int(w.rng.Int63n(100)),
	})
	if err != nil {
		t.Fatal(err)
	}
}

func (w *fuzzWorld) randomQuery() *expr.Query {
	q := &expr.Query{Template: w.tpl, Conds: make([]expr.CondInstance, len(w.tpl.Conds))}
	for ci, ct := range w.tpl.Conds {
		if ct.Form == expr.EqualityForm {
			k := 1 + w.rng.Intn(3)
			seen := map[int64]bool{}
			for len(q.Conds[ci].Values) < k {
				v := w.rng.Int63n(w.domains[ci])
				if !seen[v] {
					seen[v] = true
					q.Conds[ci].Values = append(q.Conds[ci].Values, value.Int(v))
				}
			}
		} else {
			// 1-2 disjoint intervals over the domain.
			n := 1 + w.rng.Intn(2)
			cuts := make([]int64, 0, 2*n)
			seen := map[int64]bool{}
			for len(cuts) < 2*n {
				v := w.rng.Int63n(w.domains[ci] + 2)
				if !seen[v] {
					seen[v] = true
					cuts = append(cuts, v)
				}
			}
			sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
			for j := 0; j+1 < len(cuts); j += 2 {
				q.Conds[ci].Intervals = append(q.Conds[ci].Intervals, expr.Interval{
					Lo: value.Int(cuts[j]), Hi: value.Int(cuts[j+1]),
					LoIncl: true, HiIncl: false,
				})
			}
		}
	}
	return q
}

// oracle executes the query fresh, bypassing the view.
func (w *fuzzWorld) oracle(t *testing.T, q *expr.Query) []string {
	t.Helper()
	var out []string
	err := w.eng.ExecuteProject(q, w.tpl.Select, func(tu value.Tuple) error {
		out = append(out, tu.String())
		return nil
	})
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	sort.Strings(out)
	return out
}

// mutate runs one random DML statement and reports whether it could
// have purged (a delete or an update).
func (w *fuzzWorld) mutate(t *testing.T) bool {
	t.Helper()
	w.byBCP = nil
	ri := w.rng.Intn(len(w.tpl.Relations))
	rel := fmt.Sprintf("r%d", ri)
	switch w.rng.Intn(4) {
	case 0, 1: // insert a few rows
		for i := 0; i < 1+w.rng.Intn(4); i++ {
			w.insertRow(t, ri)
		}
		return false
	case 2: // delete by join key
		key := w.rng.Int63n(w.joinDomain)
		if _, err := w.eng.DeleteWhere(rel, func(tu value.Tuple) bool {
			return tu[1].Int64() == key && w.rng.Intn(2) == 0
		}); err != nil {
			t.Fatal(err)
		}
	case 3: // update selection attribute or payload
		key := w.rng.Int63n(w.joinDomain)
		touchSel := w.rng.Intn(2) == 0
		dom := w.domains[ri]
		if _, err := w.eng.UpdateWhere(rel,
			func(tu value.Tuple) bool { return tu[2].Int64() == key },
			func(tu value.Tuple) value.Tuple {
				out := tu.Clone()
				if touchSel {
					out[3] = value.Int(w.rng.Int63n(dom))
				} else {
					out[4] = value.Int(w.rng.Int63n(100))
				}
				return out
			}); err != nil {
			t.Fatal(err)
		}
	}
	return true
}

// step runs one random operation beside the queries: DML, a routed
// refill (FillTuples), a hot-set push (ApplyHotSet), a snapshot reload
// (SnapshotEntries, InvalidateKeys, WarmAdmit), or an invalidation of
// some keys or of the whole view. After it the maintenance index must
// equal a rebuild from the entries, the view's invariants (the presence
// filter's balance among them) must hold, and after DML every cached
// tuple must be in the full query's answer.
func (w *fuzzWorld) step(t *testing.T) {
	t.Helper()
	v := w.view
	switch w.rng.Intn(8) {
	case 0, 6, 7:
		if w.mutate(t) {
			if err := checkMaintIndex(v); err != nil {
				t.Fatal(err)
			}
			w.checkCachedInAnswer(t)
		}
	case 1:
		if _, err := v.FillTuples(w.lsRows(t, w.randomQuery())); err != nil {
			t.Fatal(err)
		}
	case 2:
		groups := make(map[string][]value.Tuple)
		var keys []string
		for _, row := range w.lsRows(t, w.randomQuery()) {
			k := v.coder.KeyFromCondValues(v.condValues(row))
			if groups[k] == nil {
				keys = append(keys, k)
			}
			groups[k] = append(groups[k], row)
		}
		tuples := make([][]value.Tuple, len(keys))
		for i, k := range keys {
			tuples[i] = groups[k]
		}
		w.hotSeq++
		if _, _, _, err := v.ApplyHotSet(w.hotSeq, keys, tuples); err != nil {
			t.Fatal(err)
		}
	case 3:
		type snap struct {
			key      string
			accesses int64
			tuples   []value.Tuple
		}
		var snaps []snap
		if err := v.SnapshotEntries(func(key string, accesses int64, tuples []value.Tuple) error {
			cp := make([]value.Tuple, len(tuples))
			for i, tu := range tuples {
				cp[i] = tu.Clone()
			}
			snaps = append(snaps, snap{key, accesses, cp})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		keys := make([]string, len(snaps))
		for i, s := range snaps {
			keys[i] = s.key
		}
		v.InvalidateKeys(keys)
		for _, s := range snaps {
			if _, err := v.WarmAdmit(s.key, s.accesses, s.tuples); err != nil {
				t.Fatal(err)
			}
		}
	case 4:
		if w.rng.Intn(4) == 0 {
			v.InvalidateAll()
		} else {
			v.InvalidateKeys(w.someKeys())
		}
	case 5:
		v.InvalidateKeys(w.someKeys())
	}
	if err := checkMaintIndex(v); err != nil {
		t.Fatal(err)
	}
	if err := v.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	w.checkComplete(t)
}

// someKeys returns a random half of the view's bcp keys.
func (w *fuzzWorld) someKeys() []string {
	w.view.mu.Lock()
	defer w.view.mu.Unlock()
	var keys []string
	for k := range w.view.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []string
	for _, k := range keys {
		if w.rng.Intn(2) == 0 {
			out = append(out, k)
		}
	}
	return out
}

// lsRows executes q fresh over Ls′.
func (w *fuzzWorld) lsRows(t *testing.T, q *expr.Query) []value.Tuple {
	t.Helper()
	var out []value.Tuple
	if err := w.eng.ExecuteProject(q, w.view.selectPlus, func(tu value.Tuple) error {
		out = append(out, tu.Clone())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// checkComplete requires every complete entry to hold its bcp's whole
// answer, as a multiset.
func (w *fuzzWorld) checkComplete(t *testing.T) {
	t.Helper()
	v := w.view
	if w.byBCP == nil {
		w.byBCP = make(map[string][]string)
		for _, row := range w.lsRows(t, w.domainQuery()) {
			k := v.coder.KeyFromCondValues(v.condValues(row))
			w.byBCP[k] = append(w.byBCP[k], row.String())
		}
		for _, rows := range w.byBCP {
			sort.Strings(rows)
		}
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	for key, e := range v.entries {
		if !v.completeLocked(e) {
			continue
		}
		var got []string
		for _, tu := range e.tuples {
			got = append(got, tu.String())
		}
		want := w.byBCP[key]
		sort.Strings(got)
		if !equalStrings(got, want) {
			t.Fatalf("complete entry %q holds %v, its bcp's answer is %v", key, got, want)
		}
	}
}

// domainQuery is the query over every condition's whole domain.
func (w *fuzzWorld) domainQuery() *expr.Query {
	q := &expr.Query{Template: w.tpl, Conds: make([]expr.CondInstance, len(w.tpl.Conds))}
	for ci, ct := range w.tpl.Conds {
		if ct.Form == expr.EqualityForm {
			for x := int64(0); x < w.domains[ci]; x++ {
				q.Conds[ci].Values = append(q.Conds[ci].Values, value.Int(x))
			}
		} else {
			q.Conds[ci].Intervals = []expr.Interval{{Lo: value.Int(-1), Hi: value.Int(w.domains[ci] + 1), LoIncl: true}}
		}
	}
	return q
}

// checkCachedInAnswer requires the view's cached tuples to be a
// sub-multiset of the full query's answer.
func (w *fuzzWorld) checkCachedInAnswer(t *testing.T) {
	t.Helper()
	answer := make(map[string]int)
	for _, row := range w.lsRows(t, w.domainQuery()) {
		answer[row.String()]++
	}
	w.view.mu.Lock()
	defer w.view.mu.Unlock()
	for key, e := range w.view.entries {
		for _, tu := range e.tuples {
			if answer[tu.String()]--; answer[tu.String()] < 0 {
				t.Fatalf("entry %q caches %v, which the full answer lacks", key, tu)
			}
		}
	}
}

// TestFuzzExactlyOnce is the repository's strongest correctness check:
// across many random worlds, every query answered through the view —
// interleaved with random DML — must deliver exactly the same multiset
// of tuples as a fresh execution, with zero duplicates and zero stale
// partials.
func TestFuzzExactlyOnce(t *testing.T) {
	seeds := 12
	queriesPerWorld := 40
	if testing.Short() {
		seeds, queriesPerWorld = 3, 15
	}
	for s := 0; s < seeds; s++ {
		s := s
		t.Run(fmt.Sprintf("seed%d", s), func(t *testing.T) {
			w := buildFuzzWorld(t, int64(1000+s))
			for i := 0; i < queriesPerWorld; i++ {
				q := w.randomQuery()
				var got []string
				partials := 0
				rep, err := w.view.ExecutePartial(q, func(r Result) error {
					got = append(got, r.Tuple.String())
					if r.Partial {
						partials++
					}
					return nil
				})
				if err != nil {
					t.Fatalf("query %d: %v", i, err)
				}
				sort.Strings(got)
				want := w.oracle(t, q)
				if !equalStrings(got, want) {
					t.Fatalf("query %d (seed %d): view delivered %d rows, oracle %d\nquery: %+v",
						i, s, len(got), len(want), q.Conds)
				}
				if rep.PartialTuples != partials || rep.TotalTuples != len(got) {
					t.Fatalf("report says %d partials of %d, observed %d of %d", rep.PartialTuples, rep.TotalTuples, partials, len(got))
				}
				w.checkComplete(t)
				if err := checkMaintIndex(w.view); err != nil {
					t.Fatalf("query %d: %v", i, err)
				}
				if err := w.view.CheckInvariants(); err != nil {
					t.Fatalf("query %d: %v", i, err)
				}
				if w.rng.Intn(2) == 0 {
					w.step(t)
				}
			}
			// Structural invariants after the storm.
			if w.view.Len() > w.view.Config().MaxEntries {
				t.Errorf("view exceeded MaxEntries: %d > %d", w.view.Len(), w.view.Config().MaxEntries)
			}
			maxTuples := w.view.Config().MaxEntries * w.view.Config().TuplesPerBCP
			if w.view.TupleCount() > maxTuples {
				t.Errorf("view exceeded tuple bound: %d > %d", w.view.TupleCount(), maxTuples)
			}
		})
	}
}
