// Command bench is the benchmark of record: four workloads over one
// shared set-up, five end-to-end metrics measured untraced, and a
// ladder of per-layer metrics measured in a separate traced pass, all
// from outside the program under test. See README.md.
//
//	go run ./bench                       all four workloads, 30 s + 10 s each
//	go run ./bench -workload serve-rw    one workload
//	go run ./bench -compare a.json b.json
//
// The driver's form, which prints one JSON result as the last line:
//
//	go run ./bench --workload embed-hot --seed 3 --seconds 16 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// Default pass lengths of a run of record, in seconds.
const (
	recordUntraced = 30
	recordTraced   = 10
)

// config is one invocation's plan.
type config struct {
	sc   scale
	seed int64
	// untraced / traced are the lengths of the two passes in seconds;
	// a zero-length pass is skipped.
	untraced, traced float64
	out              string
	// setupReps is how many times a run sets the system up; setup_s is
	// the median.
	setupReps int
	// smoke downgrades drift-guard failures to warnings: the bands are
	// calibrated for the dataset of record, not the smoke one.
	smoke bool
}

// workloadResult is one workload's share of result.json.
type workloadResult struct {
	Why          string `json:"why"`
	Correct      bool   `json:"correct"`
	OpsAttempted int64  `json:"ops_attempted"`
	OpsFailed    int64  `json:"ops_failed"`
	// StaleRetries counts the typed stale-read errors the readers
	// retried; they are attempts inside an operation, not operations.
	StaleRetries int64    `json:"stale_retries"`
	EndToEnd     readings `json:"end_to_end,omitempty"`
	PerLayer     readings `json:"per_layer,omitempty"`
}

// count adds one pass's operations to the workload's totals.
func (wr *workloadResult) count(p *pass) {
	for _, l := range []*loadResult{&p.read, &p.tail} {
		wr.OpsAttempted += l.Queries + l.Requests
		wr.OpsFailed += l.Failed + l.WriteFailed
		wr.StaleRetries += l.Stale
	}
}

// environment stamps a result with where and on what it was measured.
type environment struct {
	Cores      int     `json:"cores"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Untraced   float64 `json:"untraced_s"`
	Traced     float64 `json:"traced_s"`
	When       string  `json:"when"`
}

// result is the schema of bench/out/result.json, the input of -compare.
type result struct {
	Env       environment                `json:"env"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

func main() {
	if os.Getenv(clientEnv) != "" {
		if err := runClient(); err != nil {
			fatal(err)
		}
		return
	}
	var (
		workload = flag.String("workload", "", "run one workload (default: all four)")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same query and write streams")
		seconds  = flag.Float64("seconds", 0, "measured seconds per run (default: 30 untraced + 10 traced)")
		trace    = flag.Int("trace", -1, "0: untraced pass only, print the end-to-end metrics; 1: short untraced reference, then traced pass, print the per-layer metrics; default both")
		smoke    = flag.Bool("smoke", false, "tiny dataset and 1 s passes, for the test")
		out      = flag.String("out", filepath.Join("bench", "out"), "directory for result.json, traces and scratch databases")
		compare  = flag.Bool("compare", false, "compare two result.json files: -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: bench -compare a.json b.json"))
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}

	cfg := config{sc: fullScale, seed: *seed, out: *out, setupReps: 3}
	switch {
	case *smoke:
		cfg.sc, cfg.untraced, cfg.traced, cfg.smoke, cfg.setupReps = smokeScale, 1, 1, true, 1
	case *trace == 0:
		cfg.untraced = orDefault(*seconds, recordUntraced)
	case *trace == 1:
		// The traced run still needs an untraced qps on the same booted
		// system to state the tracing overhead against.
		s := orDefault(*seconds, recordTraced)
		cfg.untraced, cfg.traced = s/3, 2*s/3
	default:
		cfg.untraced, cfg.traced = orDefault(*seconds, recordUntraced), orDefault(*seconds/3, recordTraced)
	}
	run := specs
	if *workload != "" {
		sp, ok := specByName(*workload)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		run = []spec{sp}
	}
	res, err := runBench(os.Stdout, cfg, run)
	if err != nil {
		fatal(err)
	}
	ok := true
	for _, wr := range res.Workloads {
		ok = ok && wr.Correct
	}
	if *workload != "" && (*trace == 0 || *trace == 1) {
		printDriverLine(res.Workloads[*workload], *trace)
	}
	if !ok {
		os.Exit(1)
	}
}

// runBench measures the given workloads, prints every metric to w, and
// writes result.json under cfg.out.
func runBench(w io.Writer, cfg config, run []spec) (*result, error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	res := &result{
		Env: environment{
			Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
			Commit: commit(), Seed: cfg.seed, Untraced: cfg.untraced, Traced: cfg.traced,
			When: time.Now().UTC().Format(time.RFC3339),
		},
		Workloads: map[string]*workloadResult{},
	}
	for _, sp := range run {
		wr, err := runWorkload(sp, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sp.name, err)
		}
		res.Workloads[sp.name] = wr
		printWorkload(w, sp.name, wr)
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, err
	}
	path := filepath.Join(cfg.out, "result.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "env: %d cores, GOMAXPROCS %d, %s, commit %s, seed %d\nwrote %s\n",
		res.Env.Cores, res.Env.GOMAXPROCS, res.Env.Go, res.Env.Commit, res.Env.Seed, path)
	return res, nil
}

func orDefault(v, def float64) float64 {
	if v > 0 {
		return v
	}
	return def
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// commit names the measured commit, or "unknown" outside a git work
// tree (the driver's checkout is not one).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runWorkload sets the workload up cfg.setupReps times, measures the
// configured passes on the last booted system, checks answers, and
// tears everything down.
func runWorkload(sp spec, cfg config) (*workloadResult, error) {
	var sys *system
	setups := make([]float64, cfg.setupReps)
	for i := range setups {
		dir := filepath.Join(cfg.out, fmt.Sprintf("db-%d-%s-%d", os.Getpid(), sp.name, i))
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		t0 := time.Now()
		booted, err := boot(sp, cfg.sc, cfg.seed, dir)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups[i] = time.Since(t0).Seconds()
		if i < cfg.setupReps-1 {
			booted.close()
			continue
		}
		sys = booted
	}
	defer sys.close()

	wr := &workloadResult{Why: sp.why}
	guard := func(p *pass) error {
		err := sys.driftGuard(p)
		if err != nil && cfg.smoke {
			fmt.Fprintf(os.Stderr, "bench: %s: %v (smoke: ignored)\n", sp.name, err)
			return nil
		}
		return err
	}
	var baseQPS float64
	if cfg.untraced > 0 {
		p, err := sys.measure(cfg, cfg.untraced, false)
		if err != nil {
			return nil, err
		}
		if err := guard(p); err != nil {
			return nil, err
		}
		wr.EndToEnd = p.endToEndReadings()
		wr.EndToEnd.set(endToEnd, "setup_s", median(setups), mad(setups))
		wr.count(p)
		baseQPS = wr.EndToEnd["qps"].Value
	}
	if cfg.traced > 0 {
		p, err := sys.measure(cfg, cfg.traced, true)
		if err != nil {
			return nil, err
		}
		if err := guard(p); err != nil {
			return nil, err
		}
		smp, err := sys.layerSample(cfg.seed)
		if err != nil {
			return nil, fmt.Errorf("layer sample: %w", err)
		}
		wr.PerLayer = sys.layerReadings(p, smp, baseQPS)
		wr.count(p)
		if err := writeTrace(filepath.Join(cfg.out, "trace-"+sp.name+".json"), p.spans); err != nil {
			return nil, err
		}
	}
	attempted, mismatched, err := sys.answerCheck(cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("answer check: %w", err)
	}
	wr.OpsAttempted += attempted
	wr.OpsFailed += mismatched
	wr.Correct = mismatched == 0
	return wr, nil
}

// printWorkload prints every metric of one workload by name and unit,
// and for a traced pass the layer rows against their root.
func printWorkload(w io.Writer, name string, wr *workloadResult) {
	fmt.Fprintf(w, "== %s: correct=%v ops_attempted=%d ops_failed=%d stale_retries=%d\n",
		name, wr.Correct, wr.OpsAttempted, wr.OpsFailed, wr.StaleRetries)
	printReadings(w, endToEnd, wr.EndToEnd)
	printReadings(w, perLayer, wr.PerLayer)
	if wr.PerLayer != nil {
		var sum float64
		for _, metric := range traceMetric {
			sum += wr.PerLayer[metric].Value
		}
		root := wr.PerLayer["trace.root_us"].Value
		fmt.Fprintf(w, "  trace: layer self times sum to %.1f us/query, root %.1f us/query (%+.3f%%)\n",
			sum, root, 100*ratio(sum-root, root))
	}
}

func printReadings(w io.Writer, defs []metricDef, r readings) {
	if r == nil {
		return
	}
	for _, d := range defs {
		v := r[d.name]
		line := fmt.Sprintf("  %-32s %14.4f %-13s", d.name, v.Value, v.Unit)
		if v.MAD != 0 {
			line += fmt.Sprintf(" mad %.4f", v.MAD)
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
}

// printDriverLine prints the driver's contract as the last line of
// standard output: the end-to-end metrics of an untraced run, the
// per-layer metrics of a traced one.
func printDriverLine(wr *workloadResult, trace int) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	src := wr.EndToEnd
	if trace == 1 {
		src = wr.PerLayer
	}
	metrics := make(map[string]metric, len(src))
	for name, r := range src {
		metrics[name] = metric{r.Value, r.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{wr.Correct, wr.OpsAttempted, wr.OpsFailed, metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}
