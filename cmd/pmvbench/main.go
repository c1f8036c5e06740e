// Command pmvbench regenerates every table and figure of the paper's
// evaluation section as text series.
//
// Usage:
//
//	pmvbench [-fig all|6|7|8|9|10|11|12|t1|ablation-policy|ablation-f|ablation-planner|ablation-dividers|sim-policies]
//	         [-scale s] [-sim-div n] [-rounds n] [-dir path] [-csv dir]
//
// -sim-div divides the simulation's 1M warm-up/measure query counts
// (1 = the paper's full setting; the default 10 finishes in seconds
// with hit probabilities within a fraction of a percent of the full
// run).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"pmv/internal/costmodel"
	"pmv/internal/experiments"
	"pmv/internal/sim"
)

func main() {
	fig := flag.String("fig", "all", "which figure/table to run: all, 6..12, t1, ablation-{policy,maint,f,planner,dividers}, sim-policies")
	scale := flag.Float64("scale", 0.002, "TPC-R-like scale factor for measured experiments")
	simDiv := flag.Int("sim-div", 10, "divide the paper's 1M simulation query counts by this")
	rounds := flag.Int("rounds", 20, "measurement repetitions for overhead experiments")
	dir := flag.String("dir", "", "working directory (default: a temp dir)")
	csvDir := flag.String("csv", "", "also write each figure's series as CSV into this directory")
	flag.Parse()
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fatal(err)
		}
		csvOut = *csvDir
	}

	baseDir := *dir
	if baseDir == "" {
		d, err := os.MkdirTemp("", "pmvbench")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(d)
		baseDir = d
	}

	ran := false
	run := func(name string, fn func() error) {
		if *fig != "all" && *fig != name {
			return
		}
		ran = true
		fmt.Printf("\n=== %s ===\n", title(name))
		start := time.Now()
		if err := fn(); err != nil {
			fatal(err)
		}
		fmt.Printf("(%.1fs)\n", time.Since(start).Seconds())
	}

	run("6", func() error { return figure6(*simDiv) })
	run("7", func() error { return figure7(*simDiv) })
	run("t1", func() error { return table1(baseDir, *scale) })
	run("8", func() error { return figure8(baseDir, *scale, *rounds) })
	run("9", func() error { return figure9(baseDir, *scale, *rounds) })
	run("10", func() error { return figure10(baseDir, *rounds) })
	run("11", func() error { return figure11() })
	run("12", func() error { return figure12() })
	run("ablation-policy", func() error { return ablationPolicy(baseDir, *scale) })
	run("ablation-f", func() error { return ablationF(baseDir, *scale) })
	run("ablation-planner", func() error { return ablationPlanner(baseDir, *scale) })
	run("ablation-dividers", func() error { return ablationDividers(baseDir, *scale) })
	run("sim-policies", func() error { return simPolicies(*simDiv) })
	if !ran {
		fatal(fmt.Errorf("no figure named %q (see -h)", *fig))
	}
}

func title(name string) string {
	switch name {
	case "t1":
		return "Table 1: test data set"
	case "6":
		return "Figure 6: hit probability vs h (number of bcps experiment)"
	case "7":
		return "Figure 7: hit probability vs N (PMV size experiment)"
	case "8":
		return "Figure 8: overhead vs F (number of tuples experiment)"
	case "9":
		return "Figure 9: overhead vs h (combination factor experiment)"
	case "10":
		return "Figure 10: execution time vs overhead (scale factor experiment)"
	case "11":
		return "Figure 11: maintenance total workload (analytical)"
	case "12":
		return "Figure 12: PMV-over-MV maintenance speedup (analytical)"
	default:
		return name
	}
}

func figure6(div int) error {
	rs, err := sim.Figure6(div)
	if err != nil {
		return err
	}
	rows := [][]string{{"policy", "alpha", "h", "N", "hit_prob", "per_bcp_hit_prob"}}
	for _, r := range rs {
		fmt.Println("  " + r.String())
		rows = append(rows, []string{string(r.Config.Policy), f64(r.Config.Alpha),
			i64(int64(r.Config.H)), i64(int64(r.Config.N)), f64(r.HitProb), f64(r.PartHitProb)})
	}
	return writeCSV("figure6", rows)
}

func figure7(div int) error {
	rs, err := sim.Figure7(div)
	if err != nil {
		return err
	}
	rows := [][]string{{"policy", "N", "hit_prob"}}
	for _, r := range rs {
		fmt.Println("  " + r.String())
		rows = append(rows, []string{string(r.Config.Policy), i64(int64(r.Config.N)), f64(r.HitProb)})
	}
	return writeCSV("figure7", rows)
}

func table1(dir string, scale float64) error {
	rows, err := experiments.Table1(dir, scale)
	if err != nil {
		return err
	}
	fmt.Printf("  scale factor s = %g (paper ratios: 0.15/1.5/6 M tuples per unit s)\n", scale)
	out := [][]string{{"relation", "tuples", "bytes"}}
	for _, r := range rows {
		fmt.Printf("  %-10s %10d tuples  %12d bytes  (%.0f B/tuple)\n",
			r.Relation, r.Tuples, r.Bytes, float64(r.Bytes)/float64(max64(r.Tuples, 1)))
		out = append(out, []string{r.Relation, i64(r.Tuples), i64(r.Bytes)})
	}
	return writeCSV("table1", out)
}

func figure8(dir string, scale float64, rounds int) error {
	env, err := experiments.Setup(dir, scale)
	if err != nil {
		return err
	}
	defer env.Close()
	rows, err := experiments.Figure8(env, rounds)
	if err != nil {
		return err
	}
	out := [][]string{{"F", "overhead_t1_ns", "overhead_t2_ns"}}
	for _, r := range rows {
		fmt.Printf("  F=%d  T1 overhead=%-12v T2 overhead=%v\n", r.F, r.OverheadT1, r.OverheadT2)
		out = append(out, []string{i64(int64(r.F)), i64(r.OverheadT1.Nanoseconds()), i64(r.OverheadT2.Nanoseconds())})
	}
	return writeCSV("figure8", out)
}

func figure9(dir string, scale float64, rounds int) error {
	env, err := experiments.Setup(dir, scale)
	if err != nil {
		return err
	}
	defer env.Close()
	rows, err := experiments.Figure9(env, rounds)
	if err != nil {
		return err
	}
	out := [][]string{{"h", "overhead_t1_ns", "overhead_t2_ns"}}
	for _, r := range rows {
		fmt.Printf("  h=%-2d  T1 overhead=%-12v T2 overhead=%v\n", r.H, r.OverheadT1, r.OverheadT2)
		out = append(out, []string{i64(int64(r.H)), i64(r.OverheadT1.Nanoseconds()), i64(r.OverheadT2.Nanoseconds())})
	}
	return writeCSV("figure9", out)
}

func figure10(dir string, rounds int) error {
	rows, err := experiments.Figure10(dir, nil, rounds)
	if err != nil {
		return err
	}
	out := [][]string{{"scale", "exec_t1_ns", "overhead_t1_ns", "exec_t2_ns", "overhead_t2_ns"}}
	for _, r := range rows {
		ratio1 := float64(r.ExecT1) / float64(max64(int64(r.OverheadT1), 1))
		ratio2 := float64(r.ExecT2) / float64(max64(int64(r.OverheadT2), 1))
		fmt.Printf("  s=%-7g T1: exec=%-10v overhead=%-10v (x%.0f)   T2: exec=%-10v overhead=%-10v (x%.0f)\n",
			r.Scale, r.ExecT1, r.OverheadT1, ratio1, r.ExecT2, r.OverheadT2, ratio2)
		out = append(out, []string{f64(r.Scale),
			i64(r.ExecT1.Nanoseconds()), i64(r.OverheadT1.Nanoseconds()),
			i64(r.ExecT2.Nanoseconds()), i64(r.OverheadT2.Nanoseconds())})
	}
	return writeCSV("figure10", out)
}

func figure11() error {
	m := costmodel.Default()
	fmt.Printf("  |ΔR|=%d, p·|ΔR| inserts + (1-p)·|ΔR| deletes\n", m.DeltaR)
	out := [][]string{{"p", "mv_io", "pmv_io"}}
	for _, pt := range m.Sweep(10) {
		fmt.Println("  " + pt.String())
		out = append(out, []string{f64(pt.P), f64(pt.MVIO), f64(pt.PMVIO)})
	}
	return writeCSV("figure11", out)
}

func figure12() error {
	m := costmodel.Default()
	out := [][]string{{"p", "speedup"}}
	for _, pt := range m.Sweep(10) {
		sp := fmt.Sprintf("%.0f", pt.Speedup)
		if pt.Speedup > 1e6 {
			sp = "inf (no PMV maintenance at p=100%)"
		}
		fmt.Printf("  p=%3.0f%%  speedup=%s\n", pt.P*100, sp)
		out = append(out, []string{f64(pt.P), sp})
	}
	return writeCSV("figure12", out)
}

func ablationPolicy(dir string, scale float64) error {
	env, err := experiments.Setup(dir, scale)
	if err != nil {
		return err
	}
	defer env.Close()
	rows, err := experiments.PolicyAblation(env, 64, 500, 11)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("  policy=%-6s hit=%.3f  partial tuples/query=%.2f\n", r.Policy, r.HitProb, r.Partial)
	}
	return nil
}

func ablationF(dir string, scale float64) error {
	env, err := experiments.Setup(dir, scale)
	if err != nil {
		return err
	}
	defer env.Close()
	rows, err := experiments.FAblation(env, 16<<10, 500, 17)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("  F=%d entries=%-5d hit=%.3f  partial tuples/hit=%.2f\n", r.F, r.MaxEntries, r.HitProb, r.PartialAvg)
	}
	return nil
}

func ablationPlanner(dir string, scale float64) error {
	env, err := experiments.Setup(dir, scale)
	if err != nil {
		return err
	}
	defer env.Close()
	rows, err := experiments.PlannerAblation(env, 30)
	if err != nil {
		return err
	}
	for _, r := range rows {
		label := "without ANALYZE"
		if r.Stats {
			label = "with ANALYZE   "
		}
		fmt.Printf("  %s median query latency=%v (%d queries)\n", label, r.Median, r.Queries)
	}
	return nil
}

func simPolicies(div int) error {
	rs, err := sim.PolicySweep(div)
	if err != nil {
		return err
	}
	for _, r := range rs {
		fmt.Println("  " + r.String())
	}
	return nil
}

func ablationDividers(dir string, scale float64) error {
	env, err := experiments.Setup(dir, scale)
	if err != nil {
		return err
	}
	defer env.Close()
	rows, err := experiments.DividerAblation(env, 400, 19)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("  dividers=%-3d hit=%.3f  parts/query=%.1f  partial tuples/query=%.2f\n",
			r.Dividers, r.HitProb, r.PartsPerQuery, r.Partial)
	}
	return nil
}

func max64[T ~int64 | ~int](a T, b T) T {
	if a > b {
		return a
	}
	return b
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pmvbench:", err)
	os.Exit(1)
}
