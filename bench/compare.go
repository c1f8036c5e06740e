package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of -compare. A metric is unresolved when the spread of
// either side (its MAD as a share of its value) is wider than the
// bound: the runs cannot tell a change of that size from noise.
const (
	verdictSame       = "same"
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares b against the base a. Worse is how much b is worse
// than a as a share of a, whichever direction the metric counts as
// better.
func judge(d metricDef, a, b reading) string {
	if a.Value == 0 {
		return verdictUnresolved
	}
	worse := (b.Value - a.Value) / a.Value
	if d.better == "higher" {
		worse = -worse
	}
	noise := max(ratio(a.MAD, a.Value), ratio(b.MAD, b.Value))
	switch {
	case noise > d.bound:
		return verdictUnresolved
	case worse > d.bound:
		return verdictWorse
	case worse < -d.bound:
		return verdictBetter
	}
	return verdictSame
}

func readResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareFiles prints one row per workload and end-to-end metric: the
// two values with their MADs, the ratio b/a with a as its base, the
// bound, and the verdict.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readResult(pathA)
	if err != nil {
		return err
	}
	b, err := readResult(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "a: %s  commit %s seed %d\nb: %s  commit %s seed %d\n",
		pathA, a.Env.Commit, a.Env.Seed, pathB, b.Env.Commit, b.Env.Seed)
	fmt.Fprintf(w, "%-12s %-18s %14s %10s %14s %10s %9s %6s  %s\n",
		"workload", "metric", "a", "mad", "b", "mad", "b/a", "bound", "verdict")
	for _, sp := range specs {
		wa, wb := a.Workloads[sp.name], b.Workloads[sp.name]
		if wa == nil || wb == nil {
			continue
		}
		for _, d := range endToEnd {
			ra, rb := wa.EndToEnd[d.name], wb.EndToEnd[d.name]
			verdict := judge(d, ra, rb)
			fmt.Fprintf(w, "%-12s %-18s %14.3f %10.3f %14.3f %10.3f %9.4f %6.2f  %s\n",
				sp.name, d.name, ra.Value, ra.MAD, rb.Value, rb.MAD, ratio(rb.Value, ra.Value), d.bound, verdict)
		}
		fmt.Fprintf(w, "%-12s %-18s %14d %10s %14d\n", sp.name, "ops_failed", wa.OpsFailed, "", wb.OpsFailed)
	}
	return nil
}
