package workload

import (
	"fmt"
	"math/rand"

	"pmv/internal/catalog"
	"pmv/internal/engine"
	"pmv/internal/expr"
	"pmv/internal/value"
)

// TPCRConfig sizes the TPC-R-like dataset of Section 4.2. The paper's
// Table 1 cardinalities are customer = 0.15·s M, orders = 1.5·s M,
// lineitem = 6·s M, with 10 orders per customer and 4 lineitems per
// order. The absolute row counts here scale the same way; benches use
// milli-scale factors (s=0.002 ⇒ 300 customers) so sweeps finish in
// seconds — the shape of every s-sweep is preserved (see DESIGN.md).
type TPCRConfig struct {
	// ScaleFactor is the TPC-R s. Fractional values are supported.
	ScaleFactor float64
	// Seed makes generation deterministic.
	Seed int64
	// Days is the orderdate domain size (TPC-R spans ~2406 days;
	// smaller domains concentrate the workload for small scales).
	Days int
	// Suppliers is the suppkey domain size (TPC-R: 10000·s).
	Suppliers int
	// Nations is the nationkey domain size (TPC-R: 25).
	Nations int
	// CorrelatedSupp partitions the supplier domain among nations and
	// draws each lineitem's supplier from its customer's nation's
	// block. This mirrors the paper's observation that retailers keep
	// "a separate Rsale for each store or each department": it makes
	// the T2 basic condition part (date, supplier, nation(supplier))
	// exactly as dense as T1's (date, supplier), which the controlled
	// overhead experiments need.
	CorrelatedSupp bool
	// Deterministic replaces random attribute assignment with
	// round-robin, so every (date, supplier) combination has the same
	// known result density — the controlled setting of Section 4.2
	// ("for each basic condition part, the number of query result
	// tuples that belong to it is greater than F").
	Deterministic bool
}

func (c *TPCRConfig) fill() {
	if c.ScaleFactor <= 0 {
		c.ScaleFactor = 0.002
	}
	if c.Days <= 0 {
		c.Days = 60
	}
	if c.Suppliers <= 0 {
		c.Suppliers = 50
	}
	if c.Nations <= 0 {
		c.Nations = 25
	}
}

// Customers returns the customer cardinality for the scale factor.
func (c TPCRConfig) Customers() int { return int(150000 * c.ScaleFactor) }

// Orders returns the orders cardinality (10 per customer).
func (c TPCRConfig) Orders() int { return 10 * c.Customers() }

// Lineitems returns the lineitem cardinality (4 per order).
func (c TPCRConfig) Lineitems() int { return 4 * c.Orders() }

// SuppliersPerNation returns the supplier block size under
// CorrelatedSupp.
func (c TPCRConfig) SuppliersPerNation() int {
	spn := c.Suppliers / c.Nations
	if spn < 1 {
		spn = 1
	}
	return spn
}

// NationOfSupplier returns the nation owning a supplier block under
// CorrelatedSupp.
func (c TPCRConfig) NationOfSupplier(supp int) int {
	n := supp / c.SuppliersPerNation()
	if n >= c.Nations {
		n = c.Nations - 1
	}
	return n
}

// TPCRSchemas returns the three relation schemas. Filler columns
// approximate the paper's Table 1 bytes-per-tuple ratios
// (customer ≈ 153 B, orders ≈ 76 B, lineitem ≈ 126 B).
func TPCRSchemas() (customer, orders, lineitem catalog.Schema) {
	customer = catalog.NewSchema(
		catalog.Col("custkey", value.TypeInt),
		catalog.Col("nationkey", value.TypeInt),
		catalog.Col("name", value.TypeString),
		catalog.Col("address", value.TypeString),
		catalog.Col("phone", value.TypeString),
		catalog.Col("acctbal", value.TypeFloat),
		catalog.Col("comment", value.TypeString),
	)
	orders = catalog.NewSchema(
		catalog.Col("orderkey", value.TypeInt),
		catalog.Col("custkey", value.TypeInt),
		catalog.Col("orderdate", value.TypeDate),
		catalog.Col("totalprice", value.TypeFloat),
		catalog.Col("orderpriority", value.TypeString),
		catalog.Col("clerk", value.TypeString),
	)
	lineitem = catalog.NewSchema(
		catalog.Col("orderkey", value.TypeInt),
		catalog.Col("suppkey", value.TypeInt),
		catalog.Col("partkey", value.TypeInt),
		catalog.Col("quantity", value.TypeInt),
		catalog.Col("extendedprice", value.TypeFloat),
		catalog.Col("shipmode", value.TypeString),
		catalog.Col("comment", value.TypeString),
	)
	return customer, orders, lineitem
}

// epochDay anchors generated orderdates (2026-01-01 in days since the
// Unix epoch).
const epochDay = 20454

var shipModes = []string{"AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB", "REG AIR"}
var priorities = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}

// mix32 is a deterministic avalanche hash (fmix32 from MurmurHash3),
// used to spread attribute assignments without the periodic
// correlations plain round-robin would introduce.
func mix32(x uint32) uint32 {
	x ^= x >> 16
	x *= 0x85ebca6b
	x ^= x >> 13
	x *= 0xc2b2ae35
	x ^= x >> 16
	return x & 0x7fffffff
}

func pseudoText(rng *rand.Rand, n int) string {
	const alpha = "abcdefghijklmnopqrstuvwxyz    "
	b := make([]byte, n)
	for i := range b {
		b[i] = alpha[rng.Intn(len(alpha))]
	}
	return string(b)
}

// LoadTPCR creates and populates the customer/orders/lineitem
// relations with the paper's indexes (one on each selection and join
// attribute) and returns the config actually used.
func LoadTPCR(eng *engine.Engine, cfg TPCRConfig) (TPCRConfig, error) {
	cfg.fill()
	cSchema, oSchema, lSchema := TPCRSchemas()
	if _, err := eng.CreateRelation("customer", cSchema); err != nil {
		return cfg, err
	}
	if _, err := eng.CreateRelation("orders", oSchema); err != nil {
		return cfg, err
	}
	if _, err := eng.CreateRelation("lineitem", lSchema); err != nil {
		return cfg, err
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	nC, nO := cfg.Customers(), cfg.Orders()
	nations := make([]int, nC)

	var batch []value.Tuple
	flush := func(rel string) error {
		err := eng.InsertBulk(rel, batch)
		batch = batch[:0]
		return err
	}

	for ck := 0; ck < nC; ck++ {
		if cfg.Deterministic {
			nations[ck] = ck % cfg.Nations
		} else {
			nations[ck] = rng.Intn(cfg.Nations)
		}
		batch = append(batch, value.Tuple{
			value.Int(int64(ck)),
			value.Int(int64(nations[ck])),
			value.Str(fmt.Sprintf("Customer#%09d", ck)),
			value.Str(pseudoText(rng, 25)),
			value.Str(fmt.Sprintf("%02d-%03d-%03d-%04d", rng.Intn(35)+10, rng.Intn(1000), rng.Intn(1000), rng.Intn(10000))),
			value.Float(rng.Float64() * 10000),
			value.Str(pseudoText(rng, 46)),
		})
		if len(batch) >= 1000 {
			if err := flush("customer"); err != nil {
				return cfg, err
			}
		}
	}
	if err := flush("customer"); err != nil {
		return cfg, err
	}

	for ok := 0; ok < nO; ok++ {
		day := rng.Intn(cfg.Days)
		if cfg.Deterministic {
			day = ok % cfg.Days
		}
		batch = append(batch, value.Tuple{
			value.Int(int64(ok)),
			value.Int(int64(ok % nC)), // exactly 10 orders per customer
			value.Date(epochDay + int64(day)),
			value.Float(rng.Float64() * 100000),
			value.Str(priorities[rng.Intn(len(priorities))]),
			value.Str(fmt.Sprintf("Clerk#%06d-%s", rng.Intn(1000), pseudoText(rng, 6))),
		})
		if len(batch) >= 1000 {
			if err := flush("orders"); err != nil {
				return cfg, err
			}
		}
	}
	if err := flush("orders"); err != nil {
		return cfg, err
	}

	for ok := 0; ok < nO; ok++ {
		for li := 0; li < 4; li++ { // exactly 4 lineitems per order
			var supp int
			switch {
			case cfg.CorrelatedSupp && cfg.Deterministic:
				spn := cfg.SuppliersPerNation()
				supp = nations[ok%nC]*spn + int(mix32(uint32(ok*4+li)))%spn
			case cfg.CorrelatedSupp:
				spn := cfg.SuppliersPerNation()
				supp = nations[ok%nC]*spn + rng.Intn(spn)
			case cfg.Deterministic:
				supp = int(mix32(uint32(ok*4+li))) % cfg.Suppliers
			default:
				supp = rng.Intn(cfg.Suppliers)
			}
			batch = append(batch, value.Tuple{
				value.Int(int64(ok)),
				value.Int(int64(supp)),
				value.Int(rng.Int63n(200000)),
				value.Int(int64(rng.Intn(50) + 1)),
				value.Float(rng.Float64() * 100000),
				value.Str(shipModes[rng.Intn(len(shipModes))]),
				value.Str(pseudoText(rng, 65)),
			})
		}
		if len(batch) >= 1000 {
			if err := flush("lineitem"); err != nil {
				return cfg, err
			}
		}
	}
	if err := flush("lineitem"); err != nil {
		return cfg, err
	}

	// Indexes on each selection/join attribute, as in Section 4.2.
	for _, ix := range [][2]string{
		{"customer", "custkey"}, {"customer", "nationkey"},
		{"orders", "orderkey"}, {"orders", "custkey"}, {"orders", "orderdate"},
		{"lineitem", "orderkey"}, {"lineitem", "suppkey"},
	} {
		if _, err := eng.CreateIndex("", ix[0], ix[1]); err != nil {
			return cfg, err
		}
	}
	return cfg, nil
}

// TemplateT1 is the paper's T1: lineitems by supplier and order date,
// joining orders ⋈ lineitem.
func TemplateT1() *expr.Template {
	return &expr.Template{
		Name:      "t1",
		Relations: []string{"orders", "lineitem"},
		Select: []expr.ColumnRef{
			{Rel: "orders", Col: "orderkey"},
			{Rel: "orders", Col: "orderdate"},
			{Rel: "orders", Col: "totalprice"},
			{Rel: "lineitem", Col: "suppkey"},
			{Rel: "lineitem", Col: "extendedprice"},
			{Rel: "lineitem", Col: "shipmode"},
		},
		Join: []expr.JoinPred{
			{Left: expr.ColumnRef{Rel: "orders", Col: "orderkey"}, Right: expr.ColumnRef{Rel: "lineitem", Col: "orderkey"}},
		},
		Conds: []expr.CondTemplate{
			{Col: expr.ColumnRef{Rel: "orders", Col: "orderdate"}, Form: expr.EqualityForm},
			{Col: expr.ColumnRef{Rel: "lineitem", Col: "suppkey"}, Form: expr.EqualityForm},
		},
	}
}

// TemplateT2 is the paper's T2: T1 plus customer with a nationkey
// condition.
func TemplateT2() *expr.Template {
	t := TemplateT1()
	t.Name = "t2"
	t.Relations = []string{"orders", "lineitem", "customer"}
	t.Select = append(t.Select,
		expr.ColumnRef{Rel: "customer", Col: "nationkey"},
		expr.ColumnRef{Rel: "customer", Col: "name"},
	)
	t.Join = append(t.Join, expr.JoinPred{
		Left:  expr.ColumnRef{Rel: "orders", Col: "custkey"},
		Right: expr.ColumnRef{Rel: "customer", Col: "custkey"},
	})
	t.Conds = append(t.Conds, expr.CondTemplate{
		Col: expr.ColumnRef{Rel: "customer", Col: "nationkey"}, Form: expr.EqualityForm,
	})
	return t
}

// QueryGen builds T1/T2 query instances with controlled hot/cold
// composition, mirroring Section 4.2's setup where each query breaks
// into h basic condition parts of which one is hot (in the PMV).
type QueryGen struct {
	cfg TPCRConfig
	rng *rand.Rand
	// Hot pools: small subsets of each domain that repeat across
	// queries, so their combinations stay cached.
	hotDays  []int64
	hotSupps []int64
	hotNats  []int64
}

// NewQueryGen returns a generator over the loaded dataset's domains.
// hotFraction picks the share of each domain treated as hot.
func NewQueryGen(cfg TPCRConfig, seed int64, hotFraction float64) *QueryGen {
	cfg.fill()
	rng := rand.New(rand.NewSource(seed))
	pool := func(n int) []int64 {
		k := int(float64(n) * hotFraction)
		if k < 1 {
			k = 1
		}
		perm := rng.Perm(n)
		out := make([]int64, k)
		for i := 0; i < k; i++ {
			out[i] = int64(perm[i])
		}
		return out
	}
	return &QueryGen{
		cfg:      cfg,
		rng:      rng,
		hotDays:  pool(cfg.Days),
		hotSupps: pool(cfg.Suppliers),
		hotNats:  pool(cfg.Nations),
	}
}

func (g *QueryGen) dates(e int, hot bool) []value.Value {
	out := make([]value.Value, 0, e)
	seen := map[int64]bool{}
	for len(out) < e {
		var d int64
		if hot && len(out) == 0 {
			d = g.hotDays[g.rng.Intn(len(g.hotDays))]
		} else {
			d = int64(g.rng.Intn(g.cfg.Days))
		}
		if !seen[d] {
			seen[d] = true
			out = append(out, value.Date(epochDay+d))
		}
	}
	return out
}

func (g *QueryGen) keys(n, domain int, hotPool []int64, hot bool) []value.Value {
	out := make([]value.Value, 0, n)
	seen := map[int64]bool{}
	for len(out) < n {
		var k int64
		if hot && len(out) == 0 {
			k = hotPool[g.rng.Intn(len(hotPool))]
		} else {
			k = int64(g.rng.Intn(domain))
		}
		if !seen[k] {
			seen[k] = true
			out = append(out, value.Int(k))
		}
	}
	return out
}

// T1Query builds a T1 instance with e dates and f suppliers; when hot,
// the first date and supplier come from the hot pools so the query's
// (d1, s1) part recurs across queries.
func (g *QueryGen) T1Query(tpl *expr.Template, e, f int, hot bool) *expr.Query {
	return &expr.Query{
		Template: tpl,
		Conds: []expr.CondInstance{
			{Values: g.dates(e, hot)},
			{Values: g.keys(f, g.cfg.Suppliers, g.hotSupps, hot)},
		},
	}
}

// T2Query builds a T2 instance with e dates, f suppliers, g2 nations.
func (g *QueryGen) T2Query(tpl *expr.Template, e, f, g2 int, hot bool) *expr.Query {
	return &expr.Query{
		Template: tpl,
		Conds: []expr.CondInstance{
			{Values: g.dates(e, hot)},
			{Values: g.keys(f, g.cfg.Suppliers, g.hotSupps, hot)},
			{Values: g.keys(g2, g.cfg.Nations, g.hotNats, hot)},
		},
	}
}
