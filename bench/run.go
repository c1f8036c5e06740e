package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"sync"
	"time"

	"pmv/internal/value"
)

// qsample is one correct, unflagged query as its reader saw it.
type qsample struct {
	// Done is when the call returned, since its phase began.
	Done         time.Duration
	First, Total time.Duration
	// The returned report's phases (Extra is its Overhead), whether any
	// probed bcp was present, and the rows delivered.
	Partial, Exec, Extra time.Duration
	Hit                  bool
	Rows, PartialRows    int
}

// load is the client side of one phase of a pass: closed-loop reader
// sessions and at most one writer session, run for Dur against a
// workload's front door. An embedded workload runs it in process. A
// served or routed one hands it to a client process of its own, as a
// production client is: in one process with the daemons, a reader
// parked on its socket is woken by whichever Go scheduler thread next
// polls the network, and while a session runs O3 that is often none,
// so four first rows in ten were seen only when O3 ended.
type load struct {
	Workload string
	Smoke    bool
	// Addr is the front door; empty for an embedded workload.
	Addr       string
	Seed, Salt int64
	Readers    int
	Dur        time.Duration
	// WriteStmts is the statements per write request (0: no writer),
	// WriteThink the pause after each ack.
	WriteStmts int
	WriteThink time.Duration
}

// loadResult is what a load measured. Queries and Requests count the
// attempted queries and write requests, Failed and WriteFailed those
// that failed, Stale the stale-read retries inside the queries. AckAt
// holds when each write request was acked since the phase began, and
// Acked the statements it carried.
type loadResult struct {
	Samples                []qsample
	Queries, Failed, Stale int64
	AckAt                  []time.Duration
	Acked                  []int
	Requests, WriteFailed  int64
	// Redials and Retries sum the client sessions' self-healing counters.
	Redials, Retries int64
	Err              string
}

// doors opens sessions on a workload's front door.
type doors interface {
	newReader() queryFn
	newWriter() writeFn
}

// maxStaleRetries bounds how often one query is retried on the write
// plane's stale-read error before the run gives up on it.
const maxStaleRetries = 8

// clientEnv marks a process started to run one load from its standard
// input (see runClient).
const clientEnv = "PMV_BENCH_CLIENT"

// run executes the load through d: the readers and the writer side by
// side, each in its own goroutine, until Dur has passed.
func (l load) run(d doors) loadResult {
	sp, _ := specByName(l.Workload)
	sc := fullScale
	if l.Smoke {
		sc = smokeScale
	}
	var res loadResult
	logs := make([]loadResult, l.Readers)
	var wg sync.WaitGroup
	queries := make([]queryFn, l.Readers)
	for i := range queries {
		queries[i] = d.newReader()
	}
	var write writeFn
	if l.WriteStmts > 0 {
		write = d.newWriter()
	}
	start := time.Now()
	for i := range queries {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st := newQueryStream(l.Seed, l.Salt+int64(i), sc, sp.alpha)
			logs[i].readLoop(queries[i], st, start, l.Dur)
		}(i)
	}
	if write != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res.writeLoop(write, newWriteStream(l.Seed+l.Salt, sc), l.WriteStmts, l.WriteThink, start, l.Dur)
		}()
	}
	wg.Wait()
	for i := range logs {
		res.Samples = append(res.Samples, logs[i].Samples...)
		res.Queries += logs[i].Queries
		res.Failed += logs[i].Failed
		res.Stale += logs[i].Stale
		if res.Err == "" && logs[i].Err != "" {
			res.Err = fmt.Sprintf("reader %d: %s", i, logs[i].Err)
		}
	}
	return res
}

// readLoop is one closed-loop reader session. A query is one
// operation however many attempts it takes: the write plane's typed
// stale-read error is retried as a production client would, the
// retries are counted, and the query's latency runs from its first
// attempt to its answer. Any other error ends the run: the workloads
// are chosen so that no operation fails, and a number measured beside
// failures is no number.
func (res *loadResult) readLoop(query queryFn, st *queryStream, start time.Time, dur time.Duration) {
	for time.Since(start) < dur {
		conds := st.next()
		res.Queries++
		var (
			rows  int
			first time.Duration
			rep   report
			err   error
		)
		t0 := time.Now()
		for try := 0; ; try++ {
			rows = 0
			rep, err = query(conds, func(value.Tuple) {
				if rows == 0 {
					first = time.Since(t0)
				}
				rows++
			})
			if !errors.Is(err, errStale) || try == maxStaleRetries {
				break
			}
			res.Stale++
		}
		total := time.Since(t0)
		if err != nil {
			res.Err = err.Error()
			return
		}
		if rep.flagged || rep.rows != rows {
			res.Failed++
			continue
		}
		if rows == 0 {
			first = total
		}
		res.Samples = append(res.Samples, qsample{
			Done: t0.Sub(start) + total, First: first, Total: total,
			Partial: rep.partial, Exec: rep.exec, Extra: rep.overhead,
			Hit: rep.hit, Rows: rows, PartialRows: rep.partialRows,
		})
	}
}

// writeLoop is the closed-loop writer session: requests of n
// statements until dur has passed, the next one think after the
// previous ack.
func (res *loadResult) writeLoop(write writeFn, st *writeStream, n int, think time.Duration, start time.Time, dur time.Duration) {
	for time.Since(start) < dur {
		ops := st.request(n)
		acked, err := write(ops)
		if err != nil {
			res.Err = "writer: " + err.Error()
			return
		}
		res.Requests++
		if acked != len(ops) {
			res.WriteFailed++
		}
		res.AckAt = append(res.AckAt, time.Since(start))
		res.Acked = append(res.Acked, acked)
		time.Sleep(think)
	}
}

// runClient is the whole life of a client process: read one load from
// standard input, run it over the wire, write its result to standard
// output.
func runClient() error {
	var l load
	if err := json.NewDecoder(os.Stdin).Decode(&l); err != nil {
		return fmt.Errorf("client: read load: %w", err)
	}
	d := &wireDoors{addr: l.Addr}
	res := l.run(d)
	res.Redials, res.Retries = d.close()
	return json.NewEncoder(os.Stdout).Encode(res)
}

// execute runs the load: in this process when embedded, else in a
// client process started from this program's own binary.
func (sys *system) execute(l load) (loadResult, error) {
	var res loadResult
	if sys.sp.topo == embedded {
		res = l.run(sys)
	} else {
		exe, err := os.Executable()
		if err != nil {
			return res, err
		}
		plan, err := json.Marshal(l)
		if err != nil {
			return res, err
		}
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), clientEnv+"=1")
		cmd.Stdin = bytes.NewReader(plan)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return res, fmt.Errorf("client process: %w", err)
		}
		if err := json.Unmarshal(out, &res); err != nil {
			return res, fmt.Errorf("client process: result: %w", err)
		}
	}
	if res.Err != "" {
		return res, errors.New(res.Err)
	}
	return res, nil
}

// pass is one measured interval on a booted system: the read phase,
// then the write tail.
type pass struct {
	traced bool
	// readDur is how long the readers ran, writeDur how long the write
	// tail after them.
	readDur, writeDur time.Duration
	read, tail        loadResult
	spans             []span
	// Counter snapshots: before the readers, after them, after the tail.
	c0, c1, c2 counters
}

// measure runs one pass of secs seconds: the readers in closed loop
// with no think time — beside a paced background writer on serve-rw —
// and then the writer alone, back to back, in the write tail.
func (sys *system) measure(cfg config, secs float64, traced bool) (*pass, error) {
	p := &pass{traced: traced}
	total := time.Duration(secs * float64(time.Second))
	p.writeDur = time.Duration(tailFrac * float64(total))
	p.readDur = total - p.writeDur
	l := load{
		Workload: sys.sp.name, Smoke: cfg.smoke, Addr: sys.wire.addr,
		Seed: cfg.seed, Salt: saltReader, Readers: sys.sp.readers, Dur: p.readDur,
	}
	if traced {
		l.Salt += saltTraced
	}
	if sys.sp.writeBeside {
		l.WriteStmts, l.WriteThink = besideStmts, besideThink
	}
	var err error
	p.c0 = sys.snapshot()
	if p.read, err = sys.execute(l); err != nil {
		return nil, err
	}
	p.c1 = sys.snapshot()
	l.Readers, l.Dur, l.WriteStmts, l.WriteThink = 0, p.writeDur, tailStmts, 0
	if p.tail, err = sys.execute(l); err != nil {
		return nil, err
	}
	p.c2 = sys.snapshot()
	if traced {
		for i := range p.read.Samples {
			p.spans = querySpans(p.spans, int64(i), sys.sp.topo, &p.read.Samples[i])
		}
	}
	return p, nil
}

// windowRates cuts [0, dur) into the benchmark's equal windows and
// returns each window's events per second. Events past dur — the calls
// in flight when the interval ended — fall in no window.
func windowRates(done []time.Duration, dur time.Duration) []float64 {
	win := dur / windows
	rates := make([]float64, windows)
	for _, d := range done {
		if w := int(d / win); w < windows {
			rates[w]++
		}
	}
	for i := range rates {
		rates[i] /= win.Seconds()
	}
	return rates
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// column extracts one duration of every sample, in µs.
func (p *pass) column(f func(*qsample) time.Duration) []float64 {
	out := make([]float64, len(p.read.Samples))
	for i := range p.read.Samples {
		out[i] = micros(f(&p.read.Samples[i]))
	}
	return out
}

// windowP50s returns the p50 of f over the samples of each window.
func (p *pass) windowP50s(f func(*qsample) time.Duration) []float64 {
	win := p.readDur / windows
	byWin := make([][]float64, windows)
	for i := range p.read.Samples {
		s := &p.read.Samples[i]
		if w := int(s.Done / win); w < windows {
			byWin[w] = append(byWin[w], micros(f(s)))
		}
	}
	out := make([]float64, windows)
	for i, xs := range byWin {
		out[i] = median(xs)
	}
	return out
}

func sampleFirst(s *qsample) time.Duration { return s.First }
func sampleTotal(s *qsample) time.Duration { return s.Total }

// qpsWindows are the per-window rates of correct, unflagged queries.
func (p *pass) qpsWindows() []float64 {
	done := make([]time.Duration, len(p.read.Samples))
	for i := range p.read.Samples {
		done[i] = p.read.Samples[i].Done
	}
	return windowRates(done, p.readDur)
}

// endToEndReadings are the metrics a user sees, from this pass alone
// (setup_s is added by the caller).
func (p *pass) endToEndReadings() readings {
	r := readings{}
	qps := p.qpsWindows()
	r.set(endToEnd, "qps", median(qps), mad(qps))
	r.set(endToEnd, "first_row_p50_us", median(p.column(sampleFirst)), mad(p.windowP50s(sampleFirst)))
	r.set(endToEnd, "total_p50_us", median(p.column(sampleTotal)), mad(p.windowP50s(sampleTotal)))
	r.set(endToEnd, "write_ops_per_s", p.writeRate(), mad(p.requestRates()))
	return r
}

// writeRate is the statements acked per second up to the last ack.
// Write requests are too few per window for a median of window rates:
// one request more or less in a window would move it by a tenth.
func (p *pass) writeRate() float64 {
	if len(p.tail.AckAt) == 0 {
		return 0
	}
	return p.tailStmts() / p.tail.AckAt[len(p.tail.AckAt)-1].Seconds()
}

// requestRates is each write request's own rate: its statements over
// the time since the previous ack.
func (p *pass) requestRates() []float64 {
	out := make([]float64, len(p.tail.AckAt))
	var prev time.Duration
	for i, d := range p.tail.AckAt {
		out[i] = ratio(float64(p.tail.Acked[i]), (d - prev).Seconds())
		prev = d
	}
	return out
}

// tailStmts is the number of statements the write tail acked.
func (p *pass) tailStmts() float64 {
	var n float64
	for _, k := range p.tail.Acked {
		n += float64(k)
	}
	return n
}
