package main

import (
	"fmt"
	"math"
	"math/rand"

	"dbest/internal/exact"
	"dbest/internal/table"
)

// The fact table and the columns every workload queries.
const (
	factTable  = "store_sales"
	colDate    = "ss_sold_date_sk"
	colStore   = "ss_store_sk"
	colQty     = "ss_quantity"
	colCost    = "ss_wholesale_cost"
	colList    = "ss_list_price"
	colSales   = "ss_sales_price"
	colDisc    = "ss_ext_discount_amt"
	colProfit  = "ss_net_profit"
	colChannel = "ss_channel"

	hotShapes   = 60  // distinct repeated shapes; fits the 1024-entry plan cache
	hotZipf     = 1.2 // skew of the pick among them
	narrowFrac  = 0.05
	ingestBatch = 64
	topK        = 3
)

var channels = []string{"store", "web", "catalog"}

// answerKind says what an operation returns and so how it is checked.
type answerKind uint8

const (
	kindScalar answerKind = iota
	kindGrouped
	kindDistinct
	kindTopK
	kindAppend
)

// probeRule says how a class's probe answers are held to the exact oracle
// before anything is timed.
type probeRule uint8

const (
	probeNone     probeRule = iota // appends: nothing to compare
	probeModel                     // relative error; its p95 must stay under the class ceiling
	probeExact                     // equal to the oracle to 1e-9
	probeDistinct                  // HLL estimate within 3 % of the exact distinct count
	probeTopK                      // the same set of values as the exact TOP k
)

// class is one kind of operation a workload issues. cost is the class's
// typical in-process latency in µs on the reference box (bench/README.md);
// it only orders the classes, so a test can show which class holds a
// workload's p50 and p95.
type class struct {
	name    string
	exec    string // suffix of its exec.run_<exec>_us per-layer metric, "" for none
	source  string // Result.Source every answer must carry; "" when the router may pick model or exact
	fresh   bool   // literals are drawn per operation, so the plan cache cannot hit
	probe   probeRule
	ceiling float64 // probeModel: ceiling on the class's rel_err_p95 (accuracy_test.go's 0.08 for COUNT/SUM, widened where a class is looser by design)
	cost    float64
	fill    func(g *generator, q *query)
}

// Class indices; the order is the order of the classes table.
const (
	clsHot = iota
	clsSliding
	clsNominal
	clsSharded
	clsGrouped
	clsPercentile
	clsExact
	clsWithin
	clsHLL
	clsTopK
	clsIngest
)

var plainAFs = []exact.AggFunc{exact.Count, exact.Sum, exact.Avg, exact.Variance, exact.StdDev}
var basicAFs = []exact.AggFunc{exact.Count, exact.Sum, exact.Avg}

var classes = [...]class{
	clsHot: {name: "hot", exec: "plain", source: "model", probe: probeModel, ceiling: 0.12, cost: 2.4,
		fill: nil}, // picked from the generator's fixed shapes, never filled
	clsSliding: {name: "sliding", exec: "plain", source: "model", fresh: true, probe: probeModel, ceiling: 0.12, cost: 65,
		fill: func(g *generator, q *query) { g.fillPlain(q, narrowFrac) }},
	clsNominal: {name: "nominal", exec: "nominal", source: "model", fresh: true, probe: probeModel, ceiling: 0.12, cost: 60,
		fill: func(g *generator, q *query) {
			q.af = basicAFs[g.rng.Intn(len(basicAFs))]
			q.x, q.y = colList, colSales
			q.eqCol, q.eqVal = colChannel, channels[g.rng.Intn(len(channels))]
			q.lb, q.ub = g.span(colList, 0.2)
		}},
	clsSharded: {name: "sharded_narrow", exec: "sharded", source: "model", fresh: true, probe: probeModel, ceiling: 0.12, cost: 140,
		fill: func(g *generator, q *query) {
			q.af = basicAFs[g.rng.Intn(len(basicAFs))]
			q.x, q.y = colCost, colQty
			q.lb, q.ub = g.span(colCost, narrowFrac)
		}},
	clsGrouped: {name: "grouped", exec: "grouped", source: "model", fresh: true, probe: probeModel, ceiling: 0.30, cost: 700,
		fill: func(g *generator, q *query) {
			q.kind = kindGrouped
			q.af = basicAFs[g.rng.Intn(len(basicAFs))]
			q.x, q.y, q.group = colList, colProfit, colStore
			q.lb, q.ub = g.span(colList, 0.2)
		}},
	clsPercentile: {name: "percentile", exec: "percentile", source: "model", fresh: true, probe: probeModel, ceiling: 0.12, cost: 1250,
		fill: func(g *generator, q *query) {
			q.af = exact.Percentile
			q.x, q.y = colCost, colCost
			q.p = math.Round((0.05+0.9*g.rng.Float64())*1000) / 1000
			q.noRange = true
		}},
	clsExact: {name: "exact_scan", exec: "exact", source: "exact", fresh: true, probe: probeExact, cost: 1900,
		fill: func(g *generator, q *query) {
			q.af = exact.Avg
			q.x, q.y = colQty, colDisc
			q.lb, q.ub = g.span(colQty, 0.3+0.3*g.rng.Float64())
		}},
	clsWithin: {name: "within", source: "", fresh: true, probe: probeModel, ceiling: 0.05, cost: 1700,
		fill: func(g *generator, q *query) {
			// Widths from narrow to most of the domain: the router keeps
			// the wide ones on the model and sends the narrow ones, whose
			// predicted error exceeds 1 %, to the exact scan.
			g.fillPlain(q, narrowFrac+0.75*g.rng.Float64())
			q.within = 1
		}},
	clsHLL: {name: "sketch_hll", exec: "sketch_hll", source: "sketch", probe: probeDistinct, cost: 32,
		fill: func(g *generator, q *query) { q.kind, q.x = kindDistinct, colDate }},
	clsTopK: {name: "sketch_topk", exec: "sketch_topk", source: "sketch", probe: probeTopK, cost: 2,
		fill: func(g *generator, q *query) { q.kind, q.x = kindTopK, colChannel }},
	clsIngest: {name: "ingest", cost: 400,
		fill: func(g *generator, q *query) {
			q.kind = kindAppend
			q.rows = g.batches[g.nextBatch%len(g.batches)]
			g.nextBatch++
		}},
}

// query is one operation: its SQL (or its rows, for an append) and the flat
// description the exact oracle is built from.
type query struct {
	class   int
	kind    answerKind
	sql     string
	af      exact.AggFunc
	x, y    string
	lb, ub  float64
	noRange bool    // no BETWEEN predicate (whole-table percentile)
	p       float64 // percentile point
	eqCol   string  // nominal equality predicate
	eqVal   string
	group   string
	within  float64 // WITHIN <within>% error budget, 0 for none
	rows    [][]interface{}
}

// render writes q.sql from the description.
func (q *query) render() {
	switch q.kind {
	case kindAppend:
		q.sql = ""
		return
	case kindDistinct:
		q.sql = fmt.Sprintf("SELECT COUNT(DISTINCT %s) FROM %s", q.x, factTable)
		return
	case kindTopK:
		q.sql = fmt.Sprintf("SELECT TOP %d(%s) FROM %s", topK, q.x, factTable)
		return
	}
	sel := fmt.Sprintf("%s(%s)", q.af, q.y)
	if q.af == exact.Percentile {
		sel = fmt.Sprintf("PERCENTILE(%s, %g)", q.y, q.p)
	}
	sql := fmt.Sprintf("SELECT %s FROM %s", sel, factTable)
	sep := " WHERE "
	if q.eqCol != "" {
		sql += fmt.Sprintf("%s%s = '%s'", sep, q.eqCol, q.eqVal)
		sep = " AND "
	}
	if !q.noRange {
		sql += fmt.Sprintf("%s%s BETWEEN %g AND %g", sep, q.x, q.lb, q.ub)
	}
	if q.group != "" {
		sql += " GROUP BY " + q.group
	}
	if q.within > 0 {
		sql += fmt.Sprintf(" WITHIN %g%%", q.within)
	}
	q.sql = sql
}

// request builds the exact-oracle request of a scalar or grouped query.
func (q *query) request() exact.Request {
	req := exact.Request{AF: q.af, Y: q.y, P: q.p, Group: q.group}
	if !q.noRange {
		req.Predicates = []exact.Range{{Column: q.x, Lb: q.lb, Ub: q.ub}}
	}
	if q.eqCol != "" {
		req.Equals = []exact.Equal{{Column: q.eqCol, Value: q.eqVal}}
	}
	return req
}

// mixEntry gives a class its share of a workload's operations.
type mixEntry struct {
	class  int
	weight float64
}

// workload is one traffic mix. Names are fixed: later issues cite them.
type workload struct {
	name   string
	why    string
	models []string // keys of modelSpecs it builds; each workload builds only what it uses
	mix    []mixEntry
	http   bool // through a dbest-serve subprocess over loopback
	paced  bool // one query client beside an open-loop appender and the refresher
}

var workloads = []*workload{
	{
		name:   "hot_shapes",
		why:    "60 repeated shapes fit the 1024-entry plan cache: every query is a cache hit plus memoized result, so sqlparse.Normalize and the cache probe do the work and the kernel none",
		models: []string{"plain"},
		mix:    []mixEntry{{clsHot, 1}},
	},
	{
		name:   "sliding_spans",
		why:    "same templates with fresh BETWEEN literals per query: the plan cache and memo never hit, so parse, plan, exec and the core grid kernel do all the work",
		models: []string{"plain"},
		mix:    []mixEntry{{clsSliding, 1}},
	},
	{
		name:   "path_mix",
		why:    "fresh-literal mix of nominal, sharded, grouped, percentile, sketch, exact-scan and WITHIN queries: exec operators, shard merge, sketch, exact and the router do the work, sqlparse and plan cache little",
		models: []string{"plain", "grouped", "sharded", "nominal", "hll", "topk"},
		mix: []mixEntry{
			{clsNominal, 0.25}, {clsSharded, 0.25}, {clsHLL, 0.05}, {clsTopK, 0.05},
			{clsGrouped, 0.15}, {clsPercentile, 0.10}, {clsExact, 0.10}, {clsWithin, 0.05},
		},
	},
	{
		name:   "http_dashboard",
		why:    "the hot and sliding shapes plus 2 % ingest through a dbest-serve subprocess over loopback: HTTP decode, JSON encode and the socket dominate, so serve-layer work shows here and nowhere else",
		models: []string{"plain"},
		mix:    []mixEntry{{clsHot, 0.80}, {clsSliding, 0.18}, {clsIngest, 0.02}},
		http:   true,
	},
	{
		name:   "ingest_refresh",
		why:    "one query client beside a paced appender with the refresher on: appends, snapshot publication and retrains that wipe the plan cache compete with reads on the same engine",
		models: []string{"plain", "hll"},
		mix:    []mixEntry{{clsHot, 0.90}, {clsHLL, 0.10}},
		paced:  true,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// clients is the number of closed-loop clients: W = min(nproc, 4), or the
// single query client of a paced workload.
func (w *workload) clients(nproc int) int {
	if w.paced {
		return 1
	}
	if nproc > 4 {
		return 4
	}
	return nproc
}

// has reports whether the workload issues operations of class c.
func (w *workload) has(c int) bool {
	for _, m := range w.mix {
		if m.class == c {
			return true
		}
	}
	return false
}

// probeMix is the mix the accuracy probe draws from: the workload's own
// classes that have an oracle, with the hot class probed through the
// sliding one — the same templates over the same model, but spans drawn
// afresh, so the probe is not confined to the 60 repeated shapes.
func (w *workload) probeMix() []mixEntry {
	var out []mixEntry
	for _, m := range w.mix {
		if classes[m.class].probe == probeNone {
			continue
		}
		if m.class == clsHot {
			m.class = clsSliding
		}
		merged := false
		for i := range out {
			if out[i].class == m.class {
				out[i].weight += m.weight
				merged = true
			}
		}
		if !merged {
			out = append(out, m)
		}
	}
	return out
}

// domains holds, per numeric column, the interval spans are drawn in: the
// values every store has rows at (the highest per-store minimum to the
// lowest per-store maximum). Stores differ in price level, so beyond that
// interval some groups of a GROUP BY answer are empty or a handful of rows,
// where a model has nothing to fit and an oracle little to compare with.
type domains map[string][2]float64

func tableDomains(tb *table.Table) (domains, error) {
	stores := tb.Column(colStore)
	if stores == nil {
		return nil, fmt.Errorf("table %s has no column %s", tb.Name, colStore)
	}
	d := domains{}
	for _, col := range []string{colDate, colQty, colCost, colList} {
		xs, err := tb.Floats(col)
		if err != nil {
			return nil, err
		}
		lo, hi := map[int64]float64{}, map[int64]float64{}
		for i, v := range xs {
			s := stores.Ints[i]
			if cur, ok := lo[s]; !ok || v < cur {
				lo[s] = v
			}
			if cur, ok := hi[s]; !ok || v > cur {
				hi[s] = v
			}
		}
		span := [2]float64{math.Inf(-1), math.Inf(1)}
		for s := range lo {
			span[0], span[1] = math.Max(span[0], lo[s]), math.Min(span[1], hi[s])
		}
		if !(span[0] < span[1]) {
			return nil, fmt.Errorf("column %s: the stores share no interval", col)
		}
		d[col] = span
	}
	return d, nil
}

// Generator phases: each window of a run draws from its own stream, so a
// later window never replays the literals an earlier one put in the caches.
const (
	phaseShapes = iota
	phaseProbe
	phaseWarm
	phaseTimed
	phaseSolo
	phaseTraced
	phaseLayers
	phaseBatches
)

// generator produces one client's operation sequence. The sequence is a
// pure function of (seed, client, phase): the hot shapes depend on the seed
// alone, everything else on the client's own stream.
type generator struct {
	rng       *rand.Rand
	zipf      *rand.Zipf
	dom       domains
	mix       []mixEntry
	total     float64
	shapes    []query
	batches   [][][]interface{}
	nextBatch int
	scratch   query
}

func streamSeed(seed int64, client, phase int) int64 {
	return seed*1_000_003 + int64(client)*7919 + int64(phase)*104_729
}

func newGenerator(seed int64, client, phase int, mix []mixEntry, dom domains, batches [][][]interface{}) *generator {
	g := &generator{
		rng:     rand.New(rand.NewSource(streamSeed(seed, client, phase))),
		dom:     dom,
		mix:     mix,
		batches: batches,
	}
	for _, m := range mix {
		g.total += m.weight
	}
	g.zipf = rand.NewZipf(g.rng, hotZipf, 1, hotShapes-1)
	g.shapes = hotShapeSet(seed, dom)
	// Clients start at different batches so they do not append the same
	// rows in lockstep.
	g.nextBatch = client * 7
	return g
}

// hotShapeSet is the seed's 60 repeated shapes: 12 per aggregate function
// over the plain model, each a 5 % span.
func hotShapeSet(seed int64, dom domains) []query {
	g := &generator{rng: rand.New(rand.NewSource(streamSeed(seed, 0, phaseShapes))), dom: dom}
	shapes := make([]query, hotShapes)
	for i := range shapes {
		q := &shapes[i]
		g.fillPlain(q, narrowFrac)
		q.af = plainAFs[i%len(plainAFs)]
		q.y = plainY(q.af)
		q.class = clsHot
		q.render()
	}
	return shapes
}

// plainY is the aggregated column of a plain-model query: VARIANCE and
// STDDEV are the paper's density-based functions over the predicate column.
func plainY(af exact.AggFunc) string {
	if af == exact.Variance || af == exact.StdDev {
		return colDate
	}
	return colSales
}

// fillPlain draws a query over the plain model with a span of the given
// share of the date domain.
func (g *generator) fillPlain(q *query, frac float64) {
	q.af = plainAFs[g.rng.Intn(len(plainAFs))]
	q.x, q.y = colDate, plainY(q.af)
	q.lb, q.ub = g.span(colDate, frac)
}

// span draws an interval covering frac of the column's domain.
func (g *generator) span(col string, frac float64) (float64, float64) {
	d := g.dom[col]
	width := (d[1] - d[0]) * frac
	lb := d[0] + g.rng.Float64()*(d[1]-d[0]-width)
	return lb, lb + width
}

// next returns the client's next operation. The pointer is valid until the
// following call.
func (g *generator) next() *query {
	c := g.mix[0].class
	if len(g.mix) > 1 {
		u := g.rng.Float64() * g.total
		for _, m := range g.mix {
			c = m.class
			if u < m.weight {
				break
			}
			u -= m.weight
		}
	}
	if c == clsHot {
		return &g.shapes[g.zipf.Uint64()]
	}
	q := &g.scratch
	*q = query{class: c}
	classes[c].fill(g, q)
	q.render()
	return q
}

// makeBatches resamples n append batches of ingestBatch rows from tb, each
// row shaped as Engine.Append and POST /ingest take it (values in column
// order). Appended in order, the batches are part of the data.
func makeBatches(tb *table.Table, seed int64, n int) [][][]interface{} {
	rng := rand.New(rand.NewSource(streamSeed(seed, 0, phaseBatches)))
	batches := make([][][]interface{}, n)
	for b := range batches {
		rows := make([][]interface{}, ingestBatch)
		for i := range rows {
			r := rng.Intn(tb.NumRows())
			row := make([]interface{}, len(tb.Columns))
			for j, c := range tb.Columns {
				switch c.Type {
				case table.Float64:
					row[j] = c.Float(r)
				case table.Int64:
					row[j] = c.Ints[r]
				default:
					row[j] = c.Str(r)
				}
			}
			rows[i] = row
		}
		batches[b] = rows
	}
	return batches
}
