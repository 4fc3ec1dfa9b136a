package dbest

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"dbest/internal/datagen"
)

// The differential + metamorphic harness over the serve pipeline (ROADMAP
// 1b): seeded statements drawn over every path the planner can pick, each
// answered by an engine with the shape cache and by one with plan caching
// off, which must agree bit for bit — values, CI, PredRelErr, Source, error
// text. The two engines share one published snapshot (the same model
// pointers and tables), so any difference is the serve path's, not the
// training's. The cached engine meets each shape first under one statement's
// literals and then serves every other statement of the shape from that
// plan; the uncached one parses and plans each statement for itself.

// servePair returns the two engines over every kind of model.
func servePair(t testing.TB) (cached, uncached *Engine) {
	t.Helper()
	cached = New(nil)
	sales := datagen.StoreSales(&datagen.StoreSalesOptions{Rows: 20000, Stores: 6, Seed: 21})
	rng := rand.New(rand.NewSource(22))
	mv := NewTable("mv")
	x1, x2, y := make([]float64, 8000), make([]float64, 8000), make([]float64, 8000)
	for i := range x1 {
		x1[i], x2[i] = rng.Float64()*10, rng.Float64()*10
		y[i] = x1[i] + 2*x2[i] + rng.NormFloat64()*0.3
	}
	mv.AddFloatColumn("x1", x1)
	mv.AddFloatColumn("x2", x2)
	mv.AddFloatColumn("y", y)
	for _, tb := range []*Table{sales, datagen.Store(6, 21), mv} {
		if err := cached.RegisterTable(tb); err != nil {
			t.Fatal(err)
		}
	}
	for i, spec := range []ModelSpec{
		{Table: "store_sales", XCols: []string{"ss_sold_date_sk"}, YCol: "ss_sales_price", SampleSize: 3000},
		{Table: "store_sales", XCols: []string{"ss_list_price"}, YCol: "ss_net_profit", GroupBy: "ss_store_sk", SampleSize: 1500},
		{Table: "store_sales", XCols: []string{"ss_list_price"}, YCol: "ss_sales_price", NominalBy: "ss_channel", SampleSize: 1500},
		{Table: "store_sales", XCols: []string{"ss_wholesale_cost"}, YCol: "ss_quantity", Shards: 6, SampleSize: 1000},
		{Table: "store_sales", Join: &JoinSpec{Table: "store", LeftKey: "ss_store_sk", RightKey: "s_store_sk"},
			XCols: []string{"s_number_of_employees"}, YCol: "ss_net_profit", SampleSize: 3000},
		{Table: "mv", XCols: []string{"x1", "x2"}, YCol: "y", SampleSize: 1500},
	} {
		spec.Seed = 23
		if _, err := cached.CreateModel(context.Background(), &spec); err != nil {
			t.Fatalf("train %d: %v", i, err)
		}
	}
	for _, sql := range []string{
		"CREATE SKETCH dates ON store_sales(ss_sold_date_sk) TYPE HLL",
		"CREATE SKETCH channels ON store_sales(ss_channel) TYPE TOPK K 5",
	} {
		if _, err := cached.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	uncached = New(&Options{PlanCacheSize: -1})
	uncached.snap.Store(cached.snap.Load())
	return cached, uncached
}

// stmtGen draws statements. Spans are mostly inside a column's domain, now
// and then straddling its edge or wholly outside (empty-region errors), and
// numbers are spelled several ways.
type stmtGen struct {
	rng *rand.Rand
}

var serveDomains = map[string][2]float64{
	"ss_sold_date_sk": {0, 1825}, "ss_list_price": {1, 200}, "ss_wholesale_cost": {1, 100},
	"ss_quantity": {1, 100}, "s_number_of_employees": {200, 300}, "x1": {0, 10}, "x2": {0, 10},
}

func (g *stmtGen) num(v float64) string {
	switch g.rng.Intn(4) {
	case 0:
		return fmt.Sprintf("%g", v)
	case 1:
		return fmt.Sprintf("%.3f", v)
	case 2:
		return fmt.Sprintf("%e", v)
	default:
		return fmt.Sprintf("%+g", v)
	}
}

func (g *stmtGen) span(col string) (lb, ub float64) {
	d := serveDomains[col]
	w := d[1] - d[0]
	switch r := g.rng.Float64(); {
	case r < 0.03: // wholly outside
		lb = d[1] + w*(1+g.rng.Float64())
		return lb, lb + w*g.rng.Float64()
	case r < 0.10: // straddling an edge
		lb = d[0] - w*g.rng.Float64()
		return lb, d[0] + w*g.rng.Float64()
	default:
		lb = d[0] + w*g.rng.Float64()*0.9
		return lb, lb + (d[1]-lb)*g.rng.Float64()
	}
}

func (g *stmtGen) between(col string) string {
	lb, ub := g.span(col)
	if g.rng.Float64() < 0.03 {
		lb, ub = ub+1, lb // reversed: rejected at bind time
	}
	return fmt.Sprintf("%s BETWEEN %s AND %s", col, g.num(lb), g.num(ub))
}

func (g *stmtGen) pick(xs ...string) string { return xs[g.rng.Intn(len(xs))] }

func (g *stmtGen) point() string {
	if g.rng.Float64() < 0.05 {
		return g.num(1 + g.rng.Float64()) // outside [0, 1]: rejected at bind time
	}
	return g.num(math.Round(g.rng.Float64()*1000) / 1000)
}

// serveFamilies are the statement families, one per planner path (and a few
// per path where the shape varies); withinFamily marks the one whose routing
// depends on the router's calibration history.
const withinFamily = "within"

var serveFamilies = []struct {
	name string
	gen  func(g *stmtGen) string
}{
	{"plain", func(g *stmtGen) string {
		agg := g.pick("COUNT(ss_sales_price)", "SUM(ss_sales_price)", "AVG(ss_sales_price)",
			"VARIANCE(ss_sold_date_sk)", "STDDEV(ss_sold_date_sk)", "COUNT(*)")
		return "SELECT " + agg + " FROM store_sales WHERE " + g.between("ss_sold_date_sk")
	}},
	{"plain_multi_agg", func(g *stmtGen) string {
		return "SELECT COUNT(*), AVG(ss_sales_price), PERCENTILE(ss_sold_date_sk, " + g.point() +
			") FROM store_sales WHERE " + g.between("ss_sold_date_sk")
	}},
	{"plain_percentile_whole", func(g *stmtGen) string {
		return "SELECT PERCENTILE(ss_sold_date_sk, " + g.point() + ") FROM store_sales"
	}},
	{"multivariate", func(g *stmtGen) string {
		a, b := g.between("x1"), g.between("x2")
		if g.rng.Intn(2) == 0 {
			a, b = b, a // predicate order need not be training order
		}
		return "SELECT " + g.pick("COUNT", "AVG") + "(y) FROM mv WHERE " + a + " AND " + b
	}},
	{"grouped", func(g *stmtGen) string {
		return "SELECT " + g.pick("COUNT", "SUM", "AVG") + "(ss_net_profit) FROM store_sales WHERE " +
			g.between("ss_list_price") + " GROUP BY ss_store_sk"
	}},
	{"nominal", func(g *stmtGen) string {
		eq := "ss_channel = '" + g.pick("store", "web", "catalog", "web", "pho''ne") + "'"
		rng := g.between("ss_list_price")
		if g.rng.Intn(2) == 0 {
			eq, rng = rng, eq // either order: the slots follow the statement
		}
		return "SELECT " + g.pick("COUNT", "SUM", "AVG") + "(ss_sales_price) FROM store_sales WHERE " + eq + " AND " + rng
	}},
	{"sharded", func(g *stmtGen) string {
		return "SELECT " + g.pick("COUNT(*)", "SUM(ss_quantity)", "AVG(ss_quantity)", "VARIANCE(ss_wholesale_cost)") +
			" FROM store_sales WHERE " + g.between("ss_wholesale_cost")
	}},
	{"sharded_percentile", func(g *stmtGen) string {
		sql := "SELECT PERCENTILE(ss_wholesale_cost, " + g.point() + ") FROM store_sales"
		if g.rng.Intn(2) == 0 {
			sql += " WHERE " + g.between("ss_wholesale_cost")
		}
		return sql
	}},
	{"join", func(g *stmtGen) string {
		return "SELECT " + g.pick("COUNT", "AVG") + "(ss_net_profit) FROM store_sales JOIN store ON ss_store_sk = s_store_sk WHERE " +
			g.between("s_number_of_employees")
	}},
	{"sketch", func(g *stmtGen) string {
		return "SELECT " + g.pick("COUNT(DISTINCT ss_sold_date_sk)", "TOP 3(ss_channel)", "TOP 5(ss_channel)",
			"TOP 9(ss_channel)", "TOP 0(ss_channel)") + " FROM store_sales"
	}},
	{"sketch_exact_fallback", func(g *stmtGen) string {
		return "SELECT " + g.pick("COUNT(DISTINCT ss_sold_date_sk)", "TOP 2(ss_channel)") +
			" FROM store_sales WHERE " + g.between("ss_quantity")
	}},
	{"exact", func(g *stmtGen) string {
		sql := "SELECT " + g.pick("AVG(ss_ext_discount_amt)", "COUNT(*)", "PERCENTILE(ss_ext_discount_amt, "+g.point()+")") +
			" FROM " + g.pick("store_sales", "store_sales", "store_sales", "nosuch") + " WHERE " + g.between("ss_quantity")
		if g.rng.Intn(3) == 0 {
			sql += " AND ss_channel = '" + g.pick("web", "store") + "'"
		}
		return sql
	}},
	{withinFamily, func(g *stmtGen) string {
		return "SELECT " + g.pick("COUNT", "SUM", "AVG") + "(ss_sales_price) FROM store_sales WHERE " +
			g.between("ss_sold_date_sk") + " WITHIN " + g.pick("0.5", "2", "10", "0") + "%"
	}},
}

// sameAnswer compares two outcomes bit for bit, Elapsed aside.
func sameAnswer(ra *Result, ea error, rb *Result, eb error) error {
	if (ea == nil) != (eb == nil) || (ea != nil && ea.Error() != eb.Error()) {
		return fmt.Errorf("errors differ: %v vs %v", ea, eb)
	}
	if ea != nil {
		return nil
	}
	if ra.Source != rb.Source || !reflect.DeepEqual(bitsOf(ra.Aggregates), bitsOf(rb.Aggregates)) {
		return fmt.Errorf("answers differ:\n  %s %+v\n  %s %+v", ra.Source, ra.Aggregates, rb.Source, rb.Aggregates)
	}
	return nil
}

// bitsOf maps every float of the aggregates to its bit pattern, so that
// DeepEqual holds -0 apart from 0 and NaN equal to itself.
func bitsOf(aggs []AggregateResult) interface{} {
	type group struct {
		g int64
		v uint64
	}
	type agg struct {
		name       string
		v, lo, hi  uint64
		predRelErr uint64
		groups     []group
		top        interface{}
	}
	out := make([]agg, len(aggs))
	for i, a := range aggs {
		out[i] = agg{name: a.Name, v: math.Float64bits(a.Value), lo: math.Float64bits(a.CI[0]), hi: math.Float64bits(a.CI[1]),
			predRelErr: math.Float64bits(a.PredRelErr), top: a.TopK}
		for _, g := range a.Groups {
			out[i].groups = append(out[i].groups, group{g.Group, math.Float64bits(g.Value)})
		}
	}
	return out
}

func TestServeDifferential(t *testing.T) {
	cached, uncached := servePair(t)
	n := 2400
	if testing.Short() {
		n = 480
	}
	g := &stmtGen{rng: rand.New(rand.NewSource(24))}
	served := map[string]int{} // statements that got an answer, by Source, and "error"
	stmts := make(map[string][]string, len(serveFamilies))
	for i := 0; i < n; i++ {
		fam := serveFamilies[i%len(serveFamilies)]
		sql := fam.gen(g)
		stmts[fam.name] = append(stmts[fam.name], sql)
		ra, ea := cached.Query(sql)
		rb, eb := uncached.Query(sql)
		if err := sameAnswer(ra, ea, rb, eb); err != nil {
			t.Fatalf("%s: %s\n  cached vs uncached %v", fam.name, sql, err)
		}
		if ea != nil {
			served["error"]++
		} else {
			served[ra.Source]++
		}
	}
	// The harness must actually have reached every path and the rejections.
	for _, k := range []string{"model", "exact", "sketch", "error"} {
		if served[k] < n/40 {
			t.Fatalf("only %d of %d statements ended in %q: %v", served[k], n, k, served)
		}
	}
	st := cached.PlanCacheStats()
	if st.Entries > 150 || st.Hits < uint64(n/2) {
		t.Fatalf("the cached engine did not serve from shapes: %+v", st)
	}
	if ust := uncached.PlanCacheStats(); ust != (PlanCacheStats{}) {
		t.Fatalf("the uncached engine cached: %+v", ust)
	}

	t.Run("QueryBatch", func(t *testing.T) {
		// A batch ≡ the sequential queries, duplicates included. WITHIN is
		// left to router_test.go: its routing moves with the calibration
		// history, which a batch advances in a different order.
		var batch []string
		for _, fam := range serveFamilies {
			if fam.name != withinFamily {
				batch = append(batch, stmts[fam.name][:12]...)
			}
		}
		batch = append(batch, batch[:40]...)
		rand.New(rand.NewSource(25)).Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
		batch = append(batch, "SELECT ? FROM t", "SELECT AVG(y FROM t")
		for name, eng := range map[string]*Engine{"cached": cached, "uncached": uncached} {
			for i, br := range eng.QueryBatch(batch) {
				rb, eb := uncached.Query(batch[i])
				if err := sameAnswer(br.Result, br.Err, rb, eb); err != nil || br.SQL != batch[i] {
					t.Fatalf("%s batch item %d: %s\n  batch vs sequential %v", name, i, batch[i], err)
				}
			}
		}
	})

	t.Run("RunBatch", func(t *testing.T) {
		// RunBatch(spans) ≡ Query of the spelled-out statements, on every
		// path with one range predicate, rejected spans included.
		templates := []string{
			"SELECT AVG(ss_sales_price) FROM store_sales WHERE ss_sold_date_sk BETWEEN %g AND %g",
			"SELECT PERCENTILE(ss_sold_date_sk, 0.25) FROM store_sales WHERE ss_sold_date_sk BETWEEN %g AND %g",
			"SELECT SUM(ss_net_profit) FROM store_sales WHERE ss_list_price BETWEEN %g AND %g GROUP BY ss_store_sk",
			"SELECT COUNT(ss_sales_price) FROM store_sales WHERE ss_channel = 'web' AND ss_list_price BETWEEN %g AND %g",
			"SELECT AVG(ss_quantity) FROM store_sales WHERE ss_wholesale_cost BETWEEN %g AND %g",
			"SELECT AVG(ss_net_profit) FROM store_sales JOIN store ON ss_store_sk = s_store_sk WHERE s_number_of_employees BETWEEN %g AND %g",
			"SELECT AVG(ss_ext_discount_amt) FROM store_sales WHERE ss_quantity BETWEEN %g AND %g",
			"SELECT SUM(ss_sales_price) FROM store_sales WHERE ss_sold_date_sk BETWEEN %g AND %g WITHIN 0.5%%",
		}
		cols := []string{"ss_sold_date_sk", "ss_sold_date_sk", "ss_list_price", "ss_list_price",
			"ss_wholesale_cost", "s_number_of_employees", "ss_quantity", "ss_sold_date_sk"}
		for i, tmpl := range templates {
			p, err := cached.Prepare(fmt.Sprintf(tmpl, 1.0, 2.0))
			if err != nil {
				t.Fatal(err)
			}
			spans := make([]Span, 12)
			for j := range spans {
				spans[j].Lb, spans[j].Ub = g.span(cols[i])
			}
			spans[3].Lb, spans[3].Ub = spans[3].Ub+1, spans[3].Lb
			got, err := p.RunBatch(spans)
			if err != nil {
				t.Fatal(err)
			}
			for j, sp := range spans {
				sql := fmt.Sprintf(tmpl, sp.Lb, sp.Ub)
				// WITHIN: route the spelled-out statement on the engine the
				// batch ran on, whose calibration history it shares.
				rb, eb := cached.Query(sql)
				if strings.Contains(tmpl, "WITHIN") {
					// Routing consumed history in between; only the path-free
					// properties are comparable.
					if (got[j].Err == nil) != (eb == nil) {
						t.Fatalf("%s: RunBatch err %v, Query err %v", sql, got[j].Err, eb)
					}
					continue
				}
				if err := sameAnswer(got[j].Result, got[j].Err, rb, eb); err != nil {
					t.Fatalf("%s\n  RunBatch vs Query %v", sql, err)
				}
			}
		}
	})

	t.Run("Explain", func(t *testing.T) {
		// EXPLAIN of a statement served from a shape cached under other
		// literals renders its own: equal to the uncached engine's
		// rendering, which planned it from its own text.
		for _, fam := range serveFamilies {
			renderings, ranged := map[string]bool{}, 0
			for _, sql := range stmts[fam.name][:20] {
				pa, ea := cached.Explain(sql)
				pb, eb := uncached.Explain(sql)
				if (ea == nil) != (eb == nil) || (ea != nil && ea.Error() != eb.Error()) {
					t.Fatalf("%s: Explain errors differ: %v vs %v", sql, ea, eb)
				}
				if ea != nil {
					continue
				}
				if !reflect.DeepEqual(pa, pb) {
					t.Fatalf("%s: EXPLAIN differs\n--- cached ---\n%s--- uncached ---\n%s", sql, pa.Tree, pb.Tree)
				}
				renderings[pa.Tree] = true
				if strings.Contains(sql, "BETWEEN") {
					ranged++ // its tree shows the range, or a bounds tag that moves with it
				}
			}
			if ranged > 1 && len(renderings) < 2 {
				t.Fatalf("%s: %d ranged statements all rendered alike", fam.name, ranged)
			}
		}
	})
}
