// Package experiments regenerates every table and figure of the
// paper's evaluation (Section 4): the simulation figures delegate to
// internal/sim, the analytical figures to internal/costmodel, and the
// measured figures run the PMV method against the TPC-R-like dataset
// on the embedded engine. cmd/pmvbench is a thin wrapper over this
// package.
package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"pmv/internal/cache"
	"pmv/internal/core"
	"pmv/internal/engine"
	"pmv/internal/expr"
	"pmv/internal/storage"
	"pmv/internal/value"
	"pmv/internal/workload"
)

// Env is a loaded TPC-R-like database with the T1 and T2 templates.
type Env struct {
	Eng *engine.Engine
	Cfg workload.TPCRConfig
	T1  *expr.Template
	T2  *expr.Template
	dir string
}

// Setup creates a database under dir (a fresh subdirectory) and loads
// the TPC-R-like dataset at the given scale factor, in the controlled
// configuration of Section 4.2: deterministic round-robin attribute
// assignment so every probed basic condition part has more result
// tuples than F, and nation-correlated suppliers so T2's hot bcps are
// as dense as T1's.
func Setup(dir string, scale float64) (*Env, error) {
	dbdir := filepath.Join(dir, fmt.Sprintf("tpcr_s%g", scale))
	if err := os.RemoveAll(dbdir); err != nil {
		return nil, err
	}
	eng, err := engine.Open(dbdir, engine.Options{BufferPoolPages: 1000})
	if err != nil {
		return nil, err
	}
	cfg, err := workload.LoadTPCR(eng, workload.TPCRConfig{
		ScaleFactor:    scale,
		Seed:           1,
		Days:           50,
		Suppliers:      125,
		Nations:        5,
		CorrelatedSupp: true,
		Deterministic:  true,
	})
	if err != nil {
		eng.Close()
		return nil, err
	}
	return &Env{Eng: eng, Cfg: cfg, T1: workload.TemplateT1(), T2: workload.TemplateT2(), dir: dbdir}, nil
}

// Close releases the environment.
func (e *Env) Close() error { return e.Eng.Close() }

// newView builds a 20K-entry PMV (the Section 4.2 setting) for tpl.
func (e *Env) newView(tpl *expr.Template, f int) (*core.View, error) {
	return core.NewView(e.Eng, core.Config{
		Name:         fmt.Sprintf("%s_f%d_%d", tpl.Name, f, time.Now().UnixNano()),
		Template:     tpl,
		MaxEntries:   20000,
		TuplesPerBCP: f,
		Policy:       cache.PolicyCLOCK,
	})
}

// hotQueryT1 returns a T1 query with h = e·f condition parts of which
// exactly one — (hotDate, hotSupp) = (day 0, supplier 0) — is warm in
// the view; the remaining parts use fresh out-of-domain values, so
// every measured query touches the same hot entry and produces the
// same result volume. This mirrors the Section 4.2 setup ("one of
// these h basic condition parts exists in the PMV").
func (e *Env) hotQueryT1(eCnt, fCnt int, round int) *expr.Query {
	dates := make([]value.Value, 0, eCnt)
	supps := make([]value.Value, 0, fCnt)
	dates = append(dates, dateVal(0))
	supps = append(supps, value.Int(0))
	for i := 1; i < eCnt; i++ {
		dates = append(dates, dateVal(e.Cfg.Days+round*16+i)) // cold: out of domain
	}
	for i := 1; i < fCnt; i++ {
		supps = append(supps, value.Int(int64(e.Cfg.Suppliers+round*16+i)))
	}
	return &expr.Query{Template: e.T1, Conds: []expr.CondInstance{{Values: dates}, {Values: supps}}}
}

// hotQueryT2 is the T2 analogue with h = e·f·g parts. The hot part is
// (day 0, supplier 0, nation-of-supplier-0), which under the
// correlated-supplier configuration is exactly as dense as T1's hot
// part.
func (e *Env) hotQueryT2(eCnt, fCnt, gCnt int, round int) *expr.Query {
	q1 := e.hotQueryT1(eCnt, fCnt, round)
	nats := make([]value.Value, 0, gCnt)
	nats = append(nats, value.Int(int64(e.Cfg.NationOfSupplier(0))))
	for i := 1; i < gCnt; i++ {
		nats = append(nats, value.Int(int64(e.Cfg.Nations+round*16+i)))
	}
	return &expr.Query{Template: e.T2, Conds: append(q1.Conds, expr.CondInstance{Values: nats})}
}

func dateVal(day int) value.Value { return value.Date(20454 + int64(day)) }

// warm seeds the hot (date 0, supp 0[, nation 0]) bcp into the view.
func warm(v *core.View, q *expr.Query) error {
	_, err := v.ExecutePartial(q, func(core.Result) error { return nil })
	return err
}

// measure runs rounds hot queries and returns the median overhead and
// median execution latency (medians suppress GC/scheduler jitter,
// which otherwise dwarfs the microsecond-scale per-part costs).
func measure(v *core.View, mk func(round int) *expr.Query, rounds int) (overhead, exec time.Duration, err error) {
	runtime.GC()
	oSamples := make([]time.Duration, 0, rounds)
	eSamples := make([]time.Duration, 0, rounds)
	for r := 0; r < rounds; r++ {
		rep, err := v.ExecutePartial(mk(r), func(core.Result) error { return nil })
		if err != nil {
			return 0, 0, err
		}
		oSamples = append(oSamples, rep.Overhead)
		eSamples = append(eSamples, rep.ExecLatency)
	}
	return median(oSamples), median(eSamples), nil
}

func median(xs []time.Duration) time.Duration {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	n := len(xs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// Fig8Row is one F value of Figure 8 (overhead vs tuples-per-entry).
type Fig8Row struct {
	F          int
	OverheadT1 time.Duration
	OverheadT2 time.Duration
}

// Figure8 sweeps F = 1..5 at h = 4 (T1: 2×2; T2: 2×2×1), fixed scale.
func Figure8(env *Env, rounds int) ([]Fig8Row, error) {
	if rounds <= 0 {
		rounds = 20
	}
	var out []Fig8Row
	for f := 1; f <= 5; f++ {
		v1, err := env.newView(env.T1, f)
		if err != nil {
			return nil, err
		}
		v2, err := env.newView(env.T2, f)
		if err != nil {
			return nil, err
		}
		if err := warm(v1, env.hotQueryT1(1, 1, 0)); err != nil {
			return nil, err
		}
		if err := warm(v2, env.hotQueryT2(1, 1, 1, 0)); err != nil {
			return nil, err
		}
		o1, _, err := measure(v1, func(r int) *expr.Query { return env.hotQueryT1(2, 2, r+1) }, rounds)
		if err != nil {
			return nil, err
		}
		o2, _, err := measure(v2, func(r int) *expr.Query { return env.hotQueryT2(2, 2, 1, r+1) }, rounds)
		if err != nil {
			return nil, err
		}
		out = append(out, Fig8Row{F: f, OverheadT1: o1, OverheadT2: o2})
	}
	return out, nil
}

// Fig9Row is one h value of Figure 9 (overhead vs combination factor).
type Fig9Row struct {
	H          int
	OverheadT1 time.Duration
	OverheadT2 time.Duration
}

// Figure9 sweeps h = 1..10 at F = 3 (h = e·1 for T1, e·1·1 for T2).
func Figure9(env *Env, rounds int) ([]Fig9Row, error) {
	if rounds <= 0 {
		rounds = 20
	}
	v1, err := env.newView(env.T1, 3)
	if err != nil {
		return nil, err
	}
	v2, err := env.newView(env.T2, 3)
	if err != nil {
		return nil, err
	}
	if err := warm(v1, env.hotQueryT1(1, 1, 0)); err != nil {
		return nil, err
	}
	if err := warm(v2, env.hotQueryT2(1, 1, 1, 0)); err != nil {
		return nil, err
	}
	var out []Fig9Row
	for h := 1; h <= 10; h++ {
		o1, _, err := measure(v1, func(r int) *expr.Query { return env.hotQueryT1(h, 1, r+1) }, rounds)
		if err != nil {
			return nil, err
		}
		o2, _, err := measure(v2, func(r int) *expr.Query { return env.hotQueryT2(h, 1, 1, r+1) }, rounds)
		if err != nil {
			return nil, err
		}
		out = append(out, Fig9Row{H: h, OverheadT1: o1, OverheadT2: o2})
	}
	return out, nil
}

// Fig10Row is one scale factor of Figure 10 (execution time vs
// overhead).
type Fig10Row struct {
	Scale      float64
	ExecT1     time.Duration
	OverheadT1 time.Duration
	ExecT2     time.Duration
	OverheadT2 time.Duration
}

// Figure10 sweeps the database scale factor at h = 4, F = 3. The
// scales are milli-versions of the paper's 0.5..2 sweep (see
// DESIGN.md's substitution note); the ratio between execution time and
// overhead is the figure's point.
func Figure10(baseDir string, scales []float64, rounds int) ([]Fig10Row, error) {
	if len(scales) == 0 {
		scales = []float64{0.0005, 0.001, 0.0015, 0.002}
	}
	if rounds <= 0 {
		rounds = 10
	}
	var out []Fig10Row
	for _, s := range scales {
		env, err := Setup(baseDir, s)
		if err != nil {
			return nil, err
		}
		v1, err := env.newView(env.T1, 3)
		if err == nil {
			err = warm(v1, env.hotQueryT1(1, 1, 0))
		}
		if err != nil {
			env.Close()
			return nil, err
		}
		o1, e1, err := measure(v1, func(r int) *expr.Query { return env.hotQueryT1(2, 2, r+1) }, rounds)
		if err != nil {
			env.Close()
			return nil, err
		}
		v2, err := env.newView(env.T2, 3)
		if err == nil {
			err = warm(v2, env.hotQueryT2(1, 1, 1, 0))
		}
		if err != nil {
			env.Close()
			return nil, err
		}
		o2, e2, err := measure(v2, func(r int) *expr.Query { return env.hotQueryT2(2, 2, 1, r+1) }, rounds)
		if err != nil {
			env.Close()
			return nil, err
		}
		out = append(out, Fig10Row{Scale: s, ExecT1: e1, OverheadT1: o1, ExecT2: e2, OverheadT2: o2})
		env.Close()
	}
	return out, nil
}

// Table1Row reports one relation of Table 1 (dataset sizes).
type Table1Row struct {
	Relation string
	Tuples   int64
	Bytes    int64
}

// Table1 loads the dataset at scale s and reports measured tuple
// counts and on-disk heap sizes.
func Table1(baseDir string, scale float64) ([]Table1Row, error) {
	env, err := Setup(baseDir, scale)
	if err != nil {
		return nil, err
	}
	defer env.Close()
	var out []Table1Row
	for _, rel := range []string{"customer", "orders", "lineitem"} {
		r, err := env.Eng.Catalog().GetRelation(rel)
		if err != nil {
			return nil, err
		}
		var bytes int64
		err = scanBytes(env, rel, &bytes)
		if err != nil {
			return nil, err
		}
		out = append(out, Table1Row{Relation: rel, Tuples: r.Heap.Count(), Bytes: bytes})
	}
	return out, nil
}

func scanBytes(env *Env, rel string, total *int64) error {
	r, err := env.Eng.Catalog().GetRelation(rel)
	if err != nil {
		return err
	}
	return r.Heap.Scan(func(_ storage.RID, t value.Tuple) error {
		*total += int64(value.EncodedSize(t))
		return nil
	})
}
