package experiments

import (
	"testing"
	"time"

	"pmv/internal/core"
)

// The experiment harness is exercised end-to-end at a tiny scale; the
// paper-scale runs live in cmd/pmvbench.

func smallEnv(t *testing.T) *Env {
	t.Helper()
	env, err := Setup(t.TempDir(), 0.001)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { env.Close() })
	return env
}

func TestSetupLoadsControlledConfig(t *testing.T) {
	env := smallEnv(t)
	if !env.Cfg.Deterministic || !env.Cfg.CorrelatedSupp {
		t.Error("Setup did not use the controlled configuration")
	}
	r, err := env.Eng.Catalog().GetRelation("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	if r.Heap.Count() != int64(env.Cfg.Lineitems()) {
		t.Errorf("lineitem count %d", r.Heap.Count())
	}
}

func TestHotQueriesHaveResults(t *testing.T) {
	env := smallEnv(t)
	v, err := env.newView(env.T1, 3)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := v.ExecutePartial(env.hotQueryT1(1, 1, 0), func(core.Result) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalTuples < 3 {
		t.Errorf("hot T1 bcp has only %d results; experiments need > F", rep.TotalTuples)
	}
	v2, err := env.newView(env.T2, 3)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := v2.ExecutePartial(env.hotQueryT2(1, 1, 1, 0), func(core.Result) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if rep2.TotalTuples < 3 {
		t.Errorf("hot T2 bcp has only %d results; experiments need > F", rep2.TotalTuples)
	}
}

func TestFigure8Shape(t *testing.T) {
	env := smallEnv(t)
	rows, err := Figure8(env, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.OverheadT1 <= 0 || r.OverheadT2 <= 0 {
			t.Errorf("F=%d: non-positive overhead", r.F)
		}
		if r.OverheadT1 > 10*time.Millisecond {
			t.Errorf("F=%d: implausible overhead %v", r.F, r.OverheadT1)
		}
	}
}

func TestFigure9Shape(t *testing.T) {
	env := smallEnv(t)
	rows, err := Figure9(env, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("rows = %d", len(rows))
	}
}

// TestFigure10ExecDominatesOverhead compares medians of 41 queries per
// scale (O3 is ~13× the overhead here; a median of 5 crossed the 3×
// margin whenever a stall hit three of the five), and checks growth with
// scale on pages fetched: a whole run can be slowed by a busy machine,
// so two wall-clock medians taken a second apart do not order reliably.
func TestFigure10ExecDominatesOverhead(t *testing.T) {
	rows, err := Figure10(t.TempDir(), []float64{0.0005, 0.001}, 41)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		t.Logf("s=%g: T1 exec %v, overhead %v, %.1f pages/query", r.Scale, r.ExecT1, r.OverheadT1, r.PagesT1)
		if r.ExecT1 < 3*r.OverheadT1 {
			t.Errorf("s=%g: T1 exec %v not well above overhead %v", r.Scale, r.ExecT1, r.OverheadT1)
		}
	}
	// Execution work grows with scale.
	if rows[1].PagesT1 <= rows[0].PagesT1 {
		t.Errorf("pages per query did not grow with scale: %.1f -> %.1f", rows[0].PagesT1, rows[1].PagesT1)
	}
}

func TestTable1Ratios(t *testing.T) {
	rows, err := Table1(t.TempDir(), 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]Table1Row{}
	for _, r := range rows {
		byName[r.Relation] = r
	}
	if byName["orders"].Tuples != 10*byName["customer"].Tuples {
		t.Error("orders/customer ratio broken")
	}
	if byName["lineitem"].Tuples != 4*byName["orders"].Tuples {
		t.Error("lineitem/orders ratio broken")
	}
	// Paper bytes-per-tuple: 153 / 76 / 126 (±15%).
	bpt := func(r Table1Row) float64 { return float64(r.Bytes) / float64(r.Tuples) }
	checks := map[string]float64{"customer": 153, "orders": 76, "lineitem": 126}
	for rel, want := range checks {
		got := bpt(byName[rel])
		if got < want*0.85 || got > want*1.15 {
			t.Errorf("%s: %.0f B/tuple, paper %v", rel, got, want)
		}
	}
}

func TestPolicyAblation2QWins(t *testing.T) {
	env := smallEnv(t)
	rows, err := PolicyAblation(env, 64, 600, 11)
	if err != nil {
		t.Fatal(err)
	}
	byPolicy := map[string]float64{}
	for _, r := range rows {
		byPolicy[string(r.Policy)] = r.HitProb
	}
	if byPolicy["2q"] <= byPolicy["clock"] {
		t.Errorf("2Q (%.3f) did not beat CLOCK (%.3f) on the skewed stream",
			byPolicy["2q"], byPolicy["clock"])
	}
}

func TestPlannerAblationStatsWin(t *testing.T) {
	env := smallEnv(t)
	rows, err := PlannerAblation(env, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Stats || !rows[1].Stats {
		t.Fatalf("unexpected rows: %+v", rows)
	}
	if rows[1].Median >= rows[0].Median {
		t.Errorf("ANALYZE did not speed up the skewed query: %v -> %v",
			rows[0].Median, rows[1].Median)
	}
}

func TestDividerAblationTradeoff(t *testing.T) {
	env := smallEnv(t)
	rows, err := DividerAblation(env, 200, 19)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Finer discretization always produces at least as many condition
	// parts per query.
	for i := 1; i < len(rows); i++ {
		if rows[i].PartsPerQuery < rows[i-1].PartsPerQuery {
			t.Errorf("parts/query fell from %d to %d dividers",
				rows[i-1].Dividers, rows[i].Dividers)
		}
	}
	// Partial volume should improve when moving past the coarsest
	// setting (a single huge bcp caches only F tuples for the whole
	// domain slice).
	if rows[len(rows)-1].Partial <= rows[0].Partial {
		t.Errorf("finer dividers served no more partials: %.2f vs %.2f",
			rows[0].Partial, rows[len(rows)-1].Partial)
	}
}

func TestFAblationTradeoff(t *testing.T) {
	env := smallEnv(t)
	rows, err := FAblation(env, 16<<10, 600, 17)
	if err != nil {
		t.Fatal(err)
	}
	// Partial volume per hit must grow with F; hit probability must
	// not grow.
	for i := 1; i < len(rows); i++ {
		if rows[i].PartialAvg < rows[i-1].PartialAvg {
			t.Errorf("partial/hit fell from F=%d to F=%d", rows[i-1].F, rows[i].F)
		}
		if rows[i].HitProb > rows[i-1].HitProb+0.02 {
			t.Errorf("hit prob grew with F despite fixed budget")
		}
	}
}
