package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON is BENCHMARK.json as the driver reads it.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestBenchmarkJSON holds BENCHMARK.json and the benchmark's own tables
// together: the same workloads with the same reasons, the same metrics with
// the same units, directions and bounds.
func TestBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)",
				i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, the limit is 200", w.name, len(w.why))
		}
	}
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the benchmark %+v", kind, i, g, d)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.bound || d.bound <= 0 || d.bound > 0.25):
				t.Errorf("%s metric %s: bound %v in BENCHMARK.json, %v in the benchmark (must match, in (0, 0.25])", kind, d.name, g.Bound, d.bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s metric %s carries a bound", kind, d.name)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", b.Paths)
	}
}

// TestSmoke runs all five workloads, untraced and traced, on a tenth of the
// data with 300 ms windows, and asserts every metric BENCHMARK.json names is
// printed exactly once with its unit and a finite value.
func TestSmoke(t *testing.T) {
	b := readBenchmarkJSON(t)
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{
				workload: w.name, seed: 1, seconds: 0.3, trace: traced,
				rows: 20_000, probes: 200, setups: 1, root: root, out: t.TempDir(),
			}
			t0 := time.Now()
			r, err := runWorkload(context.Background(), cfg)
			t.Logf("%s trace=%t took %v", w.name, traced, time.Since(t0))
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.name, traced, err)
			}
			var out bytes.Buffer
			if !report(&out, cfg, r) {
				t.Errorf("%s trace=%t: not correct:\n%s", w.name, traced, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s trace=%t: last line is not the result object: %v", w.name, traced, err)
			}
			if last.Attempted < 1 || last.Failed != 0 {
				t.Errorf("%s trace=%t: attempted %d, failed %d", w.name, traced, last.Attempted, last.Failed)
			}
			want := b.EndToEnd
			if traced {
				want = b.PerLayer
			}
			if len(last.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics in the result, %d in BENCHMARK.json", w.name, traced, len(last.Metrics), len(want))
			}
			for _, d := range want {
				got, ok := last.Metrics[d.Name]
				if !ok || got.Value == nil || got.Unit != d.Unit || !finite(*got.Value) {
					t.Errorf("%s trace=%t: metric %s: got %+v, want a finite value in %s", w.name, traced, d.Name, got, d.Unit)
				}
				if !traced && ok && got.Value != nil && *got.Value == 0 {
					t.Errorf("%s: end-to-end metric %s reads 0", w.name, d.Name)
				}
				printed := 0
				for _, l := range lines[:len(lines)-1] {
					if f := strings.Fields(l); len(f) == 3 && f[0] == d.Name && f[2] == d.Unit {
						printed++
					}
				}
				if printed != 1 {
					t.Errorf("%s trace=%t: metric %s printed %d times, want once", w.name, traced, d.Name, printed)
				}
			}
			if traced {
				if _, err := os.Stat(filepath.Join(cfg.out, "trace-"+w.name+".jsonl")); err != nil {
					t.Errorf("%s: no trace file: %v", w.name, err)
				}
			}
			if left, _ := filepath.Glob(filepath.Join(cfg.out, "tmp-*")); len(left) != 0 {
				t.Errorf("%s trace=%t: temporary files left behind: %v", w.name, traced, left)
			}
		}
	}
	// Ten runs, two of them training path_mix's four models: training cost
	// follows the sample size, not the table's, so the tenth-size table
	// does not shorten it.
	if took := time.Since(start); took > 30*time.Second {
		t.Errorf("smoke run took %v, want under 30 s", took)
	}
}

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n       int
		q, want float64
	}{
		{1000, 0.95, 0.95},  // 50 samples beyond: carried
		{200, 0.95, 0.95},   // exactly ten beyond
		{100, 0.95, 0.90},   // lowered until ten lie beyond
		{1000, 0.999, 0.99}, // p99.9 of a thousand is p99
		{10000, 0.999, 0.999},
		{15, 0.95, 0.5}, // never below the median
	} {
		if got := supportedQuantile(c.n, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("supportedQuantile(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // descending: summarize must sort
	}
	s := summarize(xs)
	if s.N != 1000 || s.P50 != 500 || s.P95 != 950 || s.P99 != 990 || s.P999 != 990 || s.Max != 1000 {
		t.Errorf("summarize(1..1000) = %+v", s)
	}
	if empty := summarize(nil); empty.N != 0 || empty.P50 != 0 {
		t.Errorf("summarize(nil) = %+v", empty)
	}
	var tl tally
	tl.record(true)
	tl.record(false)
	tl.add(tally{attempted: 2, failed: 0})
	if tl.attempted != 4 || tl.failed != 1 || tl.share() != 0.25 {
		t.Errorf("tally = %+v, share %v", tl, tl.share())
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Req: 1, ID: 1, Parent: 0, Name: spanQuery, Start: 0, End: 100},
		{Req: 1, ID: 2, Parent: 1, Name: spanNormalize, Start: 10, End: 30},
		{Req: 1, ID: 3, Parent: 1, Name: spanPrepare, Start: 20, End: 50},  // overlaps its sibling
		{Req: 1, ID: 4, Parent: 1, Name: spanRun, Start: 90, End: 120},     // sticks out of the parent
		{Req: 1, ID: 10, Parent: 0, Name: spanParse, Start: 130, End: 140}, // sibling replay: nobody's child
		{Req: 2, ID: 1, Parent: 0, Name: spanQuery, Start: 0, End: 40},     // another request, same ids
		{Req: 2, ID: 2, Parent: 1, Name: spanRun, Start: 0, End: 40},
	}
	want := []int64{50, 20, 30, 30, 10, 0, 40}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s of request %d) = %d, want %d",
				i, spanNames[spans[i].Name], spans[i].Req, got[i], want[i])
		}
	}
}

func testDomains() domains {
	return domains{colDate: {0, 1822}, colQty: {1, 100}, colCost: {1, 80}, colList: {2, 110}}
}

// TestOpSequence: the operations of client i are a pure function of
// (seed, i); the hot shapes depend on the seed alone.
func TestOpSequence(t *testing.T) {
	seq := func(seed int64, client int) []string {
		w := findWorkload("path_mix")
		g := newGenerator(seed, client, phaseTimed, w.mix, testDomains(), nil)
		out := make([]string, 500)
		for i := range out {
			out[i] = g.next().sql
		}
		return out
	}
	same := func(a, b []string) bool { return strings.Join(a, "\n") == strings.Join(b, "\n") }
	if !same(seq(7, 1), seq(7, 1)) {
		t.Error("the same (seed, client) gave two different operation sequences")
	}
	if same(seq(7, 1), seq(7, 2)) {
		t.Error("two clients of one seed issue the same operations")
	}
	if same(seq(7, 1), seq(8, 1)) {
		t.Error("two seeds give client 1 the same operations")
	}
	a, b := hotShapeSet(7, testDomains()), hotShapeSet(7, testDomains())
	if len(a) != hotShapes {
		t.Fatalf("%d hot shapes, want %d", len(a), hotShapes)
	}
	distinct := map[string]bool{}
	for i := range a {
		if a[i].sql != b[i].sql {
			t.Errorf("hot shape %d differs between two draws of one seed", i)
		}
		distinct[a[i].sql] = true
	}
	if len(distinct) != hotShapes {
		t.Errorf("%d distinct hot shapes, want %d", len(distinct), hotShapes)
	}
	if hotShapeSet(8, testDomains())[0].sql == a[0].sql {
		t.Error("two seeds share their hot shapes")
	}
}

// classAt orders a workload's query classes by their typical cost and
// returns the class that holds quantile q of its queries, with how far q
// lies from the class's nearer edge (in shares of all queries). Appends are
// left out, as they are from p50_us and p95_us.
func classAt(w *workload, q float64) (string, float64) {
	var mix []mixEntry
	for _, m := range w.mix {
		if m.class != clsIngest {
			mix = append(mix, m)
		}
	}
	sort.Slice(mix, func(i, j int) bool { return classes[mix[i].class].cost < classes[mix[j].class].cost })
	total := 0.0
	for _, m := range mix {
		total += m.weight
	}
	lo := 0.0
	for _, m := range mix {
		hi := lo + m.weight/total
		if q < hi {
			return classes[m.class].name, math.Min(q-lo, hi-q)
		}
		lo = hi
	}
	return "", 0
}

// TestClassPlacement: the class weights keep p50_us and p95_us inside the
// classes bench/README.md says they measure, at least 4 % of the operations
// away from the next class.
func TestClassPlacement(t *testing.T) {
	for _, c := range []struct {
		workload string
		q        float64
		class    string
	}{
		{"path_mix", 0.50, "sharded_narrow"},
		{"path_mix", 0.95, "exact_scan"},
		{"http_dashboard", 0.50, "hot"},
		{"http_dashboard", 0.95, "sliding"},
		{"ingest_refresh", 0.50, "hot"},
		{"ingest_refresh", 0.95, "sketch_hll"},
	} {
		got, margin := classAt(findWorkload(c.workload), c.q)
		if got != c.class || margin < 0.04 {
			t.Errorf("%s: quantile %v falls in class %s, %.3f from its edge; want %s, at least 0.04 inside",
				c.workload, c.q, got, margin, c.class)
		}
	}
}

// TestFailedCheckFailsTheRun: an answer check made to fail — here by
// corrupting the oracle's value — yields a complaint, an incorrect result
// line, and so a non-zero exit.
func TestFailedCheckFailsTheRun(t *testing.T) {
	q := &query{class: clsExact, kind: kindScalar}
	got := answer{value: 123.456, source: "exact"}
	if _, complaint := probeError(q, got, answer{value: 123.456}); complaint != "" {
		t.Fatalf("the true oracle value is rejected: %s", complaint)
	}
	_, complaint := probeError(q, got, answer{value: 123.456 * 1.001})
	if complaint == "" {
		t.Fatal("a corrupted oracle value is not noticed")
	}
	if c := classCeilings(map[int][]float64{clsSliding: {0.01, 0.02, 0.5, 0.6, 0.7, 0.8, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9}}, 1); len(c) != 1 {
		t.Errorf("a class far over its rel_err ceiling gives %d complaints, want 1", len(c))
	}
	r := &result{metrics: map[string]float64{}}
	for _, d := range endToEnd {
		r.metrics[d.name] = 1
	}
	r.record(false)
	r.fail("%s", complaint)
	var out bytes.Buffer
	if report(&out, config{workload: "path_mix"}, r) {
		t.Error("report calls a run with a failed check correct")
	}
	if !strings.Contains(out.String(), `"correct":false`) || !strings.Contains(out.String(), "FAILED CHECK") {
		t.Errorf("the failed check is not in the output:\n%s", out.String())
	}
}
