package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"pmv"
	"pmv/client"
	"pmv/internal/cluster"
	"pmv/internal/expr"
	"pmv/internal/maint"
	"pmv/internal/server"
	"pmv/internal/value"
	"pmv/internal/workload"
)

// system is one booted workload: the databases, the daemons in front
// of them, and the clients the benchmark opened against them. The
// program under test sees only what goes through queryFn and writeFn.
type system struct {
	sp  spec
	sc  scale
	dir string
	tpl *expr.Template
	// dbs holds one database, or one per shard when routed; dbs[0] is
	// the reference the answer check executes against.
	dbs     []*pmv.DB
	plane   *maint.Plane
	servers []*server.Server
	router  *cluster.Router
	// wire holds the front door's address of a served or routed system
	// and the sessions this process opened on it (warm-up and answer
	// check; the measured sessions belong to client processes).
	wire wireDoors
}

// report is the part of a query's returned report the benchmark uses,
// in one shape for the embedded and the wire path.
type report struct {
	partial, exec, overhead time.Duration
	rows, partialRows       int
	// hit is true when any probed bcp was present in the view.
	hit bool
	// flagged is true when the answer may be a subset or skipped the
	// view: degraded, deadline-expired, shed, partial-only or skipped.
	flagged bool
}

// queryFn runs one query through the workload's front door, handing
// every delivered row to onRow.
type queryFn func(conds []expr.CondInstance, onRow func(value.Tuple)) (report, error)

// writeFn sends one write request and returns the statements acked.
type writeFn func(ops []client.Op) (int, error)

// errStale marks the write plane's loud stale-read error: a cached
// tuple the base relation no longer produces, caught by the DS audit
// between a batch's apply and its purge. The reader retries.
var errStale = errors.New("bench: stale read")

// boot sets the workload up under dir, from an empty directory to a
// warm system ready for its first timed query.
func boot(sp spec, sc scale, seed int64, dir string) (sys *system, err error) {
	sys = &system{sp: sp, sc: sc, dir: dir, tpl: workload.TemplateT1()}
	defer func() {
		if err != nil {
			sys.close()
			sys = nil
		}
	}()
	opts := pmv.Options{BufferPoolPages: sp.poolPages(sc), EnableWAL: sp.writeBeside}
	node0 := filepath.Join(dir, "node0")
	db, err := pmv.Open(node0, opts)
	if err != nil {
		return sys, err
	}
	sys.dbs = []*pmv.DB{db}
	if _, err := workload.LoadTPCR(db.Engine(), sc.tpcr); err != nil {
		return sys, fmt.Errorf("load: %w", err)
	}
	if err := db.Analyze(); err != nil {
		return sys, fmt.Errorf("analyze: %w", err)
	}
	vopts := pmv.ViewOptions{MaxEntries: sp.maxEntries(sc), TuplesPerBCP: tuplesPerBCP}
	if _, err := db.CreatePartialView(sys.tpl, vopts); err != nil {
		return sys, fmt.Errorf("create view: %w", err)
	}

	switch sp.topo {
	case served:
		sys.plane, err = maint.New(maint.Config{Source: db, BatchSize: maintBatch})
		if err != nil {
			return sys, err
		}
		srv := server.New(db, server.Config{})
		srv.SetMaint(sys.plane)
		if err := srv.Start("127.0.0.1:0"); err != nil {
			return sys, err
		}
		sys.servers = []*server.Server{srv}
		sys.wire.addr = srv.Addr().String()
	case routed:
		// Every shard holds the full dataset: load once, clone the
		// closed directory, reopen.
		sys.dbs = nil
		if err := db.Close(); err != nil {
			return sys, err
		}
		addrs := make([]string, shards)
		for i := 0; i < shards; i++ {
			node := filepath.Join(dir, fmt.Sprintf("node%d", i))
			if i > 0 {
				if err := copyDir(node0, node); err != nil {
					return sys, fmt.Errorf("clone shard: %w", err)
				}
			}
			sdb, err := pmv.Open(node, opts)
			if err != nil {
				return sys, err
			}
			sys.dbs = append(sys.dbs, sdb)
			srv := server.New(sdb, server.Config{})
			if err := srv.Start("127.0.0.1:0"); err != nil {
				return sys, err
			}
			sys.servers = append(sys.servers, srv)
			addrs[i] = srv.Addr().String()
		}
		// Tail and frequency planes stay off (Config zero values).
		sys.router, err = cluster.NewRouter(cluster.Config{Shards: addrs})
		if err != nil {
			return sys, err
		}
		if err := sys.router.Start("127.0.0.1:0"); err != nil {
			return sys, err
		}
		sys.wire.addr = sys.router.Addr().String()
	}

	query := sys.newReader()
	warm := newQueryStream(seed, saltWarm, sc, sp.alpha)
	for i := 0; i < sc.warmQueries; i++ {
		if _, err := query(warm.next(), func(value.Tuple) {}); err != nil {
			return sys, fmt.Errorf("warm-up: %w", err)
		}
	}
	return sys, nil
}

// close stops every daemon, waits for them, and removes the data.
func (sys *system) close() {
	sys.wire.close()
	if sys.router != nil {
		sys.router.Shutdown()
	}
	for _, srv := range sys.servers {
		srv.Shutdown()
	}
	if sys.plane != nil {
		sys.plane.Close()
	}
	for _, db := range sys.dbs {
		db.Close()
	}
	os.RemoveAll(sys.dir)
}

// newReader opens one reader session on the workload's front door.
func (sys *system) newReader() queryFn {
	if sys.sp.topo != embedded {
		return sys.wire.newReader()
	}
	view, _ := sys.dbs[0].ViewByName(viewName)
	return func(conds []expr.CondInstance, onRow func(value.Tuple)) (report, error) {
		q := &expr.Query{Template: sys.tpl, Conds: conds}
		rep, err := view.ExecutePartialCtx(context.Background(), q, func(r pmv.Result) error {
			onRow(r.Tuple)
			return nil
		})
		return report{
			partial: rep.PartialLatency, exec: rep.ExecLatency, overhead: rep.Overhead,
			rows: rep.TotalTuples, partialRows: rep.PartialTuples, hit: rep.Hit,
			flagged: rep.Degraded || rep.DeadlineExpired || rep.PartialOnly || rep.Skipped,
		}, err
	}
}

// newWriter opens the writer session: client.Update with maint set on
// a served or routed system, one DB.Update per statement embedded.
func (sys *system) newWriter() writeFn {
	if sys.sp.topo != embedded {
		return sys.wire.newWriter()
	}
	db := sys.dbs[0]
	return func(ops []client.Op) (int, error) {
		for i, op := range ops {
			rel, err := db.Engine().Catalog().GetRelation(op.Rel)
			if err != nil {
				return i, err
			}
			where, set := rel.Schema.ColIndex(op.Col), rel.Schema.ColIndex(op.SetCol)
			if where < 0 || set < 0 {
				return i, fmt.Errorf("bench: %s has no column %q or %q", op.Rel, op.Col, op.SetCol)
			}
			_, err = db.Update(op.Rel,
				func(t pmv.Tuple) bool { return value.Equal(t[where], op.Val) },
				func(t pmv.Tuple) pmv.Tuple { t[set] = op.SetVal; return t })
			if err != nil {
				return i, err
			}
		}
		return len(ops), nil
	}
}

// wireDoors opens client sessions on a daemon's address. Sessions are
// opened before the goroutines that use them start, never beside them.
type wireDoors struct {
	addr    string
	clients []*client.Client
}

func (d *wireDoors) newClient() *client.Client {
	c := client.New(d.addr)
	d.clients = append(d.clients, c)
	return c
}

func (d *wireDoors) newReader() queryFn {
	c := d.newClient()
	return func(conds []expr.CondInstance, onRow func(value.Tuple)) (report, error) {
		rep, err := c.ExecutePartial(context.Background(), viewName, conds, func(r client.Row) error {
			onRow(r.Tuple)
			return nil
		})
		if err != nil && errors.Is(err, client.ErrRemote) && strings.Contains(err.Error(), "consistency violation") {
			err = errStale
		}
		return report{
			partial: rep.PartialLatency, exec: rep.ExecLatency, overhead: rep.Overhead,
			rows: rep.TotalTuples, partialRows: rep.PartialTuples, hit: rep.Hit,
			flagged: rep.Degraded || rep.DeadlineExpired || rep.PartialOnly || rep.Skipped || rep.Shed,
		}, err
	}
}

func (d *wireDoors) newWriter() writeFn {
	c := d.newClient()
	return func(ops []client.Op) (int, error) {
		rep, err := c.Update(context.Background(), true, ops...)
		return rep.Applied, err
	}
}

// close closes the sessions and returns their summed self-healing
// counters.
func (d *wireDoors) close() (redials, retries int64) {
	for _, c := range d.clients {
		cc := c.Counters()
		redials, retries = redials+cc.Redials, retries+cc.Retries
		c.Close()
	}
	d.clients = nil
	return redials, retries
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
