package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"pmv/internal/wire"
)

// TestMain lets the test binary stand in for the benchmark's own when
// a served workload starts its client process from os.Executable.
func TestMain(m *testing.M) {
	if os.Getenv(clientEnv) != "" {
		if err := runClient(); err != nil {
			fatal(err)
		}
		return
	}
	os.Exit(m.Run())
}

func TestPercentileMedianMAD(t *testing.T) {
	xs := []float64{9, 1, 7, 3, 5} // sorted: 1 3 5 7 9
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {0.25, 3}, {0.5, 5}, {0.75, 7}, {1, 9}, {0.1, 1.8}, {0.99, 8.92},
	} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 9 {
		t.Error("percentile sorted its input in place")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
	// Deviations from the median 5 are 4 2 0 2 4, whose median is 2.
	if got := mad(xs); got != 2 {
		t.Errorf("mad = %v, want 2", got)
	}
	// One outlier moves neither the median nor the MAD.
	if got := mad([]float64{1, 3, 5, 7, 900}); got != 2 {
		t.Errorf("mad with an outlier = %v, want 2", got)
	}
	if percentile(nil, 0.5) != 0 || mad(nil) != 0 {
		t.Error("empty input must give 0")
	}
}

func TestWindowRates(t *testing.T) {
	dur := 5 * time.Second // five 1 s windows
	done := []time.Duration{
		100 * time.Millisecond, 900 * time.Millisecond, // window 0
		1500 * time.Millisecond, // window 1
		4999 * time.Millisecond, // window 4
		5001 * time.Millisecond, // past the interval: no window
	}
	got := windowRates(done, dur)
	want := []float64{2, 1, 0, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("windowRates = %v, want %v", got, want)
		}
	}
}

// TestSpanSelfTimes pins the span arithmetic: children never leave
// their parent, and the self times of a query sum to its root.
func TestSpanSelfTimes(t *testing.T) {
	us := time.Microsecond
	// Four queries of 1 ms each, 5 ms apart.
	queries := []qsample{
		{Partial: 20 * us, Exec: 900 * us, Extra: 50 * us},
		{Partial: 0, Exec: 1000 * us, Extra: 0},
		// Phases that claim more than the root lasted are clipped to it.
		{Partial: 600 * us, Exec: 900 * us, Extra: 2000 * us},
		// Overhead below the partial latency leaves O3 no overhead child.
		{Partial: 30 * us, Exec: 100 * us, Extra: 10 * us},
	}
	for i := range queries {
		queries[i].Total = 1000 * us
		queries[i].Done = time.Duration(i)*5*time.Millisecond + queries[i].Total
	}
	for _, topo := range []topology{embedded, served, routed} {
		var spans []span
		var wantRoot int64
		for i := range queries {
			spans = querySpans(spans, int64(i), topo, &queries[i])
			wantRoot += int64(queries[i].Total)
		}
		byName := map[int64]map[string]span{}
		for _, sp := range spans {
			if byName[sp.Query] == nil {
				byName[sp.Query] = map[string]span{}
			}
			byName[sp.Query][sp.Name] = sp
		}
		for _, sp := range spans {
			if sp.End < sp.Start {
				t.Errorf("topo %d: span %+v ends before it starts", topo, sp)
			}
			if sp.Parent == "" {
				continue
			}
			parent, ok := byName[sp.Query][sp.Parent]
			if !ok {
				t.Fatalf("topo %d: span %+v has no parent", topo, sp)
			}
			if sp.Start < parent.Start || sp.End > parent.End {
				t.Errorf("topo %d: span %+v leaves its parent %+v", topo, sp, parent)
			}
		}
		self, roots := selfTimes(spans)
		if roots != int64(len(queries)) {
			t.Errorf("topo %d: %d roots, want %d", topo, roots, len(queries))
		}
		var sum int64
		for name, ns := range self {
			if ns < 0 {
				t.Errorf("topo %d: %s has negative self time %d", topo, name, ns)
			}
			if _, ok := traceMetric[name]; !ok {
				t.Errorf("topo %d: span %q has no metric", topo, name)
			}
			sum += ns
		}
		if sum != wantRoot || rootTime(spans) != wantRoot {
			t.Errorf("topo %d: self times sum to %d, roots to %d, want %d", topo, sum, rootTime(spans), wantRoot)
		}
	}
	// The first query, embedded: query 80, o1o2 20, o3 900-30, overhead 30.
	self, _ := selfTimes(querySpans(nil, 0, embedded, &queries[0]))
	want := map[string]int64{spanQuery: 80_000, spanO1O2: 20_000, spanO3: 870_000, spanOverhead: 30_000}
	for name, ns := range want {
		if self[name] != ns {
			t.Errorf("embedded self[%s] = %d, want %d", name, self[name], ns)
		}
	}
}

// streamBytes renders the first n queries of a stream as the bytes the
// wire would carry.
func streamBytes(t *testing.T, seed, salt int64, n int) []byte {
	t.Helper()
	st := newQueryStream(seed, salt, smokeScale, hotAlpha)
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		b, err := wire.EncodeQuery(wire.QueryRequest{View: viewName, Conds: st.next()})
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
	}
	return buf.Bytes()
}

func TestGeneratorDeterminism(t *testing.T) {
	a, b := streamBytes(t, 7, saltReader, 200), streamBytes(t, 7, saltReader, 200)
	if !bytes.Equal(a, b) {
		t.Error("the same seed gave two different query streams")
	}
	if bytes.Equal(a, streamBytes(t, 8, saltReader, 200)) {
		t.Error("a different seed gave the same query stream")
	}
	if bytes.Equal(a, streamBytes(t, 7, saltWarm, 200)) {
		t.Error("two streams of one seed gave the same draws")
	}
	w1, w2, w3 := newWriteStream(7, smokeScale), newWriteStream(7, smokeScale), newWriteStream(8, smokeScale)
	same, differs := true, false
	for i := 0; i < 200; i++ {
		k1, v1 := w1.next()
		k2, v2 := w2.next()
		k3, v3 := w3.next()
		same = same && k1 == k2 && v1 == v2
		differs = differs || k1 != k3 || v1 != v3
		if k1 < 0 || k1 >= int64(smokeScale.tpcr.Orders()) {
			t.Fatalf("write key %d outside the orders", k1)
		}
	}
	if !same || !differs {
		t.Errorf("write stream: same seed equal = %v, other seed differs = %v", same, differs)
	}
}

// TestQueryShape pins the query shape: two distinct dates and two
// distinct suppliers inside the dataset's domains.
func TestQueryShape(t *testing.T) {
	st := newQueryStream(1, saltReader, smokeScale, 0.6)
	for i := 0; i < 500; i++ {
		conds := st.next()
		if len(conds) != 2 || len(conds[0].Values) != 2 || len(conds[1].Values) != 2 {
			t.Fatalf("query %d: conditions %+v, want 2 dates x 2 suppliers", i, conds)
		}
		d1, d2 := conds[0].Values[0].Int64()-epochDay, conds[0].Values[1].Int64()-epochDay
		s1, s2 := conds[1].Values[0].Int64(), conds[1].Values[1].Int64()
		if d1 == d2 || s1 == s2 {
			t.Fatalf("query %d repeats a date or a supplier: %+v", i, conds)
		}
		for _, d := range []int64{d1, d2} {
			if d < 0 || d >= int64(smokeScale.tpcr.Days) {
				t.Fatalf("query %d: date offset %d outside the domain", i, d)
			}
		}
		for _, s := range []int64{s1, s2} {
			if s < 0 || s >= int64(smokeScale.tpcr.Suppliers) {
				t.Fatalf("query %d: supplier %d outside the domain", i, s)
			}
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{name: "total_p50_us", better: "lower", bound: 0.10}
	higher := metricDef{name: "qps", better: "higher", bound: 0.10}
	for _, c := range []struct {
		d    metricDef
		a, b reading
		want string
	}{
		{lower, reading{Value: 100}, reading{Value: 105}, verdictSame},
		{lower, reading{Value: 100}, reading{Value: 120}, verdictWorse},
		{lower, reading{Value: 100}, reading{Value: 80}, verdictBetter},
		{higher, reading{Value: 100}, reading{Value: 80}, verdictWorse},
		{higher, reading{Value: 100}, reading{Value: 120}, verdictBetter},
		// A MAD wider than the bound on either side hides the change.
		{higher, reading{Value: 100, MAD: 15}, reading{Value: 60}, verdictUnresolved},
		{higher, reading{Value: 100}, reading{Value: 60, MAD: 9}, verdictUnresolved},
		{lower, reading{}, reading{Value: 5}, verdictUnresolved},
	} {
		if got := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("judge(%s, %v, %v) = %s, want %s", c.d.name, c.a, c.b, got, c.want)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSON pins BENCHMARK.json to the tables in metrics.go
// and spec.go, and both to the driver's contract.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bj.Paths)
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bj.RunSeconds)
	}
	if len(bj.Workloads) != len(specs) {
		t.Fatalf("%d workloads, want %d", len(bj.Workloads), len(specs))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("name %q is malformed or used twice", name)
		}
		seen[name] = true
	}
	for i, w := range bj.Workloads {
		unique(w.Name)
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d = %+v, want %s / %q", i, w, specs[i].name, specs[i].why)
		}
		if len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		for i, m := range got {
			unique(m.Name)
			d := want[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d = %+v, want %+v", kind, i, m, d)
			}
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: unit %q is malformed", m.Name, m.Unit)
			}
			switch {
			case bounded && (m.Bound == nil || *m.Bound != d.bound || d.bound <= 0 || d.bound > 0.25):
				t.Errorf("%s: bound %v, want %v in (0, 0.25]", m.Name, m.Bound, d.bound)
			case !bounded && m.Bound != nil:
				t.Errorf("%s: a per-layer metric carries no bound", m.Name)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd, true)
	check("per_layer", bj.PerLayer, perLayer, false)
	largest := 0.0
	for _, d := range endToEnd {
		largest = max(largest, d.bound)
	}
	if endToEnd[0].name != "setup_s" || endToEnd[0].bound != largest {
		t.Error("setup_s must be an end-to-end metric with the largest bound")
	}
}

// TestSmoke runs all four workloads end to end on the smoke dataset:
// set-up, both passes, the answer check, every metric, the trace files.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots four systems")
	}
	out := t.TempDir()
	cfg := config{sc: smokeScale, seed: 1, untraced: 1, traced: 1, out: out, setupReps: 1, smoke: true}
	res, err := runBench(io.Discard, cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		wr := res.Workloads[sp.name]
		if wr == nil {
			t.Fatalf("%s: no result", sp.name)
		}
		if !wr.Correct || wr.OpsFailed != 0 || wr.OpsAttempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", sp.name, wr.Correct, wr.OpsAttempted, wr.OpsFailed)
		}
		for _, d := range endToEnd {
			if v, ok := wr.EndToEnd[d.name]; !ok || v.Value <= 0 || v.Unit != d.unit {
				t.Errorf("%s: end-to-end %s = %+v, want a positive value in %s", sp.name, d.name, v, d.unit)
			}
		}
		for _, d := range perLayer {
			if v, ok := wr.PerLayer[d.name]; !ok || v.Unit != d.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: per-layer %s = %+v", sp.name, d.name, v)
			}
		}
		if len(wr.EndToEnd) != len(endToEnd) || len(wr.PerLayer) != len(perLayer) {
			t.Errorf("%s: %d + %d metrics, want %d + %d", sp.name, len(wr.EndToEnd), len(wr.PerLayer), len(endToEnd), len(perLayer))
		}
		var sum float64
		for _, metric := range traceMetric {
			sum += wr.PerLayer[metric].Value
		}
		if root := wr.PerLayer["trace.root_us"].Value; root <= 0 || math.Abs(sum-root) > 0.01*root {
			t.Errorf("%s: layer self times sum to %v, root %v", sp.name, sum, root)
		}
		if rows := wr.PerLayer["exec.rows_per_query"].Value; rows <= 0 {
			t.Errorf("%s: the sample returned no rows", sp.name)
		}
		data, err := os.ReadFile(filepath.Join(out, "trace-"+sp.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var spans []span
		if err := json.Unmarshal(data, &spans); err != nil || len(spans) == 0 {
			t.Errorf("%s: trace file: %d spans, err %v", sp.name, len(spans), err)
		}
	}
	// The result file is what -compare reads; comparing it with itself
	// calls a metric the same, or unresolved where a 1 s pass is noisy.
	var buf bytes.Buffer
	path := filepath.Join(out, "result.json")
	if err := compareFiles(&buf, path, path); err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{verdictBetter, verdictWorse} {
		if bytes.Contains(buf.Bytes(), []byte(v)) {
			t.Errorf("self-comparison judged a metric %s:\n%s", v, buf.String())
		}
	}
	if !bytes.Contains(buf.Bytes(), []byte(verdictSame)) {
		t.Errorf("self-comparison judged no metric the same:\n%s", buf.String())
	}
	entries, err := os.ReadDir(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			t.Errorf("scratch database %s left behind", e.Name())
		}
	}
}
