// Command pmvcli is a small interactive shell over a pmv database —
// either a local directory (as created by pmvload or the examples) or
// a running pmvd server.
//
//	pmvcli -dir ./db            # embedded, exclusive access
//	pmvcli -addr localhost:7070 # remote, via the wire protocol
//
// Commands (identical in both modes):
//
//	tables                     list relations
//	schema <rel>               show a relation's columns and indexes
//	count <rel>                live tuple count
//	peek <rel> [n]             print the first n tuples (default 5)
//	views                      list partial materialized views
//	partial <view> <c0> <c1>…  run a query through a view; each <ci>
//	                           binds condition i: comma-separated
//	                           values (42 | 2026-01-04 | text) for
//	                           equality conditions, lo..hi ranges for
//	                           interval conditions
//	analyze                    recompute optimizer statistics
//	checkpoint                 flush pages and truncate the WAL
//	stats                      buffer pool and I/O counters
//	viewstats                  per-view PMV counters (hit probability,
//	                           lock waits, maintenance cost)
//	trace [on|off|slow <dur>]  show or change server-side query tracing
//	                           and the slow-query threshold (server mode)
//	trace <id>                 print one assembled cross-shard trace from
//	                           a pmvrouter's trace store; `trace recent`
//	                           lists retained ids (router mode)
//	slowlog [n]                dump the newest n slow queries with their
//	                           traces (server mode)
//	shards                     shard map epoch and per-shard cache health
//	                           (-addr must point at a pmvrouter)
//	fleet                      federated fleet view: per-shard health,
//	                           epoch, snapshot freshness, maint backlog
//	                           (-addr must point at a pmvrouter)
//	maint                      write-plane health: ingest queue, batch
//	                           sizes, purge and invalidation counters
//	                           (server mode)
//	help / quit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"pmv/internal/expr"
	"pmv/internal/value"
)

// condSpec is what the parser needs to know about one template
// condition: its form and the column type of its attribute.
type condSpec struct {
	label    string
	interval bool
	typ      value.Type
}

// backend abstracts where the shell's commands run: in-process over an
// opened directory, or over the wire against pmvd. Commands print
// their own output so each mode can show what it actually knows (the
// local mode prints RIDs, the remote mode prints server latencies).
type backend interface {
	tables() error
	schema(rel string) error
	count(rel string) error
	peek(rel string, n int) error
	views() error
	condSpecs(view string) ([]condSpec, error)
	partial(view string, conds []expr.CondInstance) error
	analyze() error
	checkpoint() error
	stats() error
	viewstats() error
	trace(args []string) error
	traceGet(id uint64) error
	slowlog(n int) error
	shards() error
	fleet() error
	maint() error
	close() error
}

func main() {
	dir := flag.String("dir", "pmvdata", "database directory (embedded mode)")
	addr := flag.String("addr", "", "pmvd address; when set, commands run against the server instead of -dir")
	flag.Parse()

	var (
		be    backend
		where string
		err   error
	)
	if *addr != "" {
		be, err = openRemote(*addr)
		where = *addr
	} else {
		be, err = openLocal(*dir)
		where = *dir
	}
	if err != nil {
		log.Fatal(err)
	}
	defer be.close()

	fmt.Printf("pmvcli: %s (type 'help')\n", where)
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("pmv> ")
		if !sc.Scan() {
			fmt.Println()
			return
		}
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		var err error
		switch fields[0] {
		case "quit", "exit", "\\q":
			return
		case "help":
			fmt.Println("tables | schema <rel> | count <rel> | peek <rel> [n] | views |")
			fmt.Println("partial <view> <cond0> <cond1> ... | analyze | checkpoint | stats |")
			fmt.Println("viewstats | trace [on|off|slow <dur>|slow off] | trace <id|recent> |")
			fmt.Println("slowlog [n] | shards | fleet | maint | quit")
		case "tables":
			err = be.tables()
		case "schema":
			if len(fields) < 2 {
				fmt.Println("usage: schema <rel>")
				continue
			}
			err = be.schema(fields[1])
		case "count":
			if len(fields) < 2 {
				fmt.Println("usage: count <rel>")
				continue
			}
			err = be.count(fields[1])
		case "peek":
			if len(fields) < 2 {
				fmt.Println("usage: peek <rel> [n]")
				continue
			}
			n := 5
			if len(fields) >= 3 {
				if v, err := strconv.Atoi(fields[2]); err == nil {
					n = v
				}
			}
			err = be.peek(fields[1], n)
		case "views":
			err = be.views()
		case "partial":
			err = cmdPartial(be, fields)
		case "analyze":
			if err = be.analyze(); err == nil {
				fmt.Println("  statistics refreshed")
			}
		case "checkpoint":
			if err = be.checkpoint(); err == nil {
				fmt.Println("  checkpointed")
			}
		case "stats":
			err = be.stats()
		case "viewstats":
			err = be.viewstats()
		case "trace":
			if len(fields) == 2 {
				if fields[1] == "recent" {
					err = be.traceGet(0)
					break
				}
				if id, perr := strconv.ParseUint(fields[1], 10, 64); perr == nil {
					err = be.traceGet(id)
					break
				}
			}
			err = be.trace(fields[1:])
		case "slowlog":
			n := 10
			if len(fields) >= 2 {
				if v, err := strconv.Atoi(fields[1]); err == nil {
					n = v
				}
			}
			err = be.slowlog(n)
		case "shards":
			err = be.shards()
		case "fleet":
			err = be.fleet()
		case "maint":
			err = be.maint()
		default:
			fmt.Printf("unknown command %q (try 'help')\n", fields[0])
		}
		if err != nil {
			fmt.Println(err)
		}
	}
}

// cmdPartial parses per-condition arguments against the view's
// template and runs the PMV protocol through the backend.
func cmdPartial(be backend, fields []string) error {
	if len(fields) < 3 {
		fmt.Println("usage: partial <view> <cond0> <cond1> ...")
		return nil
	}
	specs, err := be.condSpecs(fields[1])
	if err != nil {
		return err
	}
	args := fields[2:]
	if len(args) != len(specs) {
		fmt.Printf("view %s has %d conditions, got %d arguments\n",
			fields[1], len(specs), len(args))
		return nil
	}
	conds := make([]expr.CondInstance, len(args))
	for i, arg := range args {
		spec := specs[i]
		if spec.interval {
			for _, part := range strings.Split(arg, ",") {
				lohi := strings.SplitN(part, "..", 2)
				if len(lohi) != 2 {
					fmt.Printf("condition %d (%s) is interval-form: use lo..hi\n", i, spec.label)
					return nil
				}
				lo, err1 := parseValue(lohi[0], spec.typ)
				hi, err2 := parseValue(lohi[1], spec.typ)
				if err1 != nil || err2 != nil {
					fmt.Printf("condition %d: bad bounds %q\n", i, part)
					return nil
				}
				conds[i].Intervals = append(conds[i].Intervals,
					expr.Interval{Lo: lo, Hi: hi, LoIncl: true})
			}
			continue
		}
		for _, tok := range strings.Split(arg, ",") {
			val, err := parseValue(tok, spec.typ)
			if err != nil {
				fmt.Printf("condition %d: %v\n", i, err)
				return nil
			}
			conds[i].Values = append(conds[i].Values, val)
		}
	}
	return be.partial(fields[1], conds)
}

func parseValue(tok string, typ value.Type) (value.Value, error) {
	tok = strings.TrimSpace(tok)
	switch typ {
	case value.TypeInt:
		n, err := strconv.ParseInt(tok, 10, 64)
		if err != nil {
			return value.Null(), fmt.Errorf("bad integer %q", tok)
		}
		return value.Int(n), nil
	case value.TypeFloat:
		f, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			return value.Null(), fmt.Errorf("bad float %q", tok)
		}
		return value.Float(f), nil
	case value.TypeDate:
		return value.DateFromString(tok)
	case value.TypeBool:
		b, err := strconv.ParseBool(tok)
		if err != nil {
			return value.Null(), fmt.Errorf("bad bool %q", tok)
		}
		return value.Bool(b), nil
	default:
		return value.Str(tok), nil
	}
}
