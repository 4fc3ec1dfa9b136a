package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"sync"

	"dbest/internal/exact"
	"dbest/internal/table"
	evalwl "dbest/internal/workload"
)

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// validAnswer is the check every response gets while the clock runs: no
// error, a finite value of the right shape, and the path its class expects.
func validAnswer(q *query, a answer, err error) bool {
	if err != nil {
		return false
	}
	if want := classes[q.class].source; want != "" {
		if a.source != want {
			return false
		}
	} else if a.source != "model" && a.source != "exact" {
		return false
	}
	switch q.kind {
	case kindGrouped:
		if len(a.groups) == 0 {
			return false
		}
		for _, g := range a.groups {
			if !finite(g.value) {
				return false
			}
		}
		return true
	case kindTopK:
		return len(a.top) == topK
	default:
		return finite(a.value)
	}
}

// oracle answers q exactly over tb.
func oracle(tb *table.Table, q *query) (answer, error) {
	switch q.kind {
	case kindDistinct:
		v, err := exact.DistinctCount(tb, q.x, nil, nil)
		return answer{value: v}, err
	case kindTopK:
		top, err := exact.TopValues(tb, q.x, topK, nil, nil)
		a := answer{}
		for _, e := range top {
			a.top = append(a.top, e.Value)
		}
		return a, err
	}
	res, err := exact.Query(tb, q.request())
	if err != nil {
		return answer{}, err
	}
	a := answer{value: res.Value}
	for g, v := range res.Groups {
		a.groups = append(a.groups, groupValue{g, v})
	}
	return a, nil
}

// probeError compares one probe answer with the oracle's under the class's
// rule. It returns the answer's relative error (the mean over groups for a
// grouped answer), and a non-empty complaint when a rule that judges single
// answers is broken.
func probeError(q *query, got, want answer) (float64, string) {
	switch classes[q.class].probe {
	case probeExact:
		re := evalwl.RelErr(got.value, want.value)
		if re > 1e-9 {
			return re, fmt.Sprintf("exact path answered %v, the oracle %v", got.value, want.value)
		}
		return re, ""
	case probeDistinct:
		re := evalwl.RelErr(got.value, want.value)
		if re > 0.03 {
			return re, fmt.Sprintf("HLL estimated %v distinct values, the oracle counts %v", got.value, want.value)
		}
		return re, ""
	case probeTopK:
		g, w := append([]string(nil), got.top...), append([]string(nil), want.top...)
		sort.Strings(g)
		sort.Strings(w)
		if fmt.Sprint(g) != fmt.Sprint(w) {
			return 1, fmt.Sprintf("TOP %d returned %v, the oracle %v", topK, got.top, want.top)
		}
		return 0, ""
	}
	if q.kind != kindGrouped {
		return evalwl.RelErr(got.value, want.value), ""
	}
	exactOf := make(map[int64]float64, len(want.groups))
	for _, g := range want.groups {
		exactOf[g.group] = g.value
	}
	sum, n := 0.0, 0
	for _, g := range got.groups {
		if v, ok := exactOf[g.group]; ok {
			sum += evalwl.RelErr(g.value, v)
			n++
		}
	}
	if n < len(want.groups) {
		return 1, fmt.Sprintf("grouped answer covers %d of the oracle's %d groups", n, len(want.groups))
	}
	return sum / float64(n), ""
}

// probeResult is the accuracy probe's outcome.
type probeResult struct {
	tally
	relErr   []float64 // model-path relative errors, ascending
	digest   uint64    // FNV-64 of the probe answers in order
	failures []string
}

// classCeilings judges the per-class relative errors of the model-path
// probes: each class's p95 must stay under its ceiling. It returns one
// complaint per class that does not. The ceilings are set for the full
// 200000-row table; a span of a smaller table holds fewer rows, and the
// sampling error of an answer grows as one over the root of that number, so
// slack = sqrt(200000 / rows) widens them for the smoke test's table.
func classCeilings(perClass map[int][]float64, slack float64) []string {
	var out []string
	for c, errs := range perClass {
		sort.Float64s(errs)
		p95 := quantile(errs, supportedQuantile(len(errs), 0.95))
		if ceiling := classes[c].ceiling * slack; !(p95 <= ceiling) {
			out = append(out, fmt.Sprintf("class %s: rel_err_p95 %.4f over %d probes exceeds its ceiling %.3f",
				classes[c].name, p95, len(errs), ceiling))
		}
	}
	sort.Strings(out)
	return out
}

// probeQueries draws the probe's queries: n split over the classes of the
// workload's probe mix in exact proportion to their weights. Like the data
// they are the same for every --seed (setup.go): the probe is the fixed test
// set accuracy is read on, so rel_err_p50/p95 move only when the code moves
// them.
func (e *env) probeQueries(n int) []query {
	mix := e.w.probeMix()
	total := 0.0
	for _, m := range mix {
		total += m.weight
	}
	var qs []query
	for _, m := range mix {
		g := newGenerator(dataSeed, m.class, phaseProbe, []mixEntry{m}, e.dom, nil)
		for k := int(math.Round(float64(n) * m.weight / total)); k > 0; k-- {
			qs = append(qs, *g.next())
		}
	}
	return qs
}

// probe answers cfg.probes queries of the workload's own classes through
// the target and compares each with the exact oracle over the live table
// (the oracle's scans run on all cores; nothing is being timed). Over HTTP
// the in-process engine, which holds the catalog the server loaded, must
// give the very same answer.
func (e *env) probe() probeResult {
	var pr probeResult
	qs := e.probeQueries(e.cfg.probes)
	tb := e.liveTable()
	type truth struct {
		a   answer
		err error
	}
	want := make([]truth, len(qs))
	var wg sync.WaitGroup
	for w := 0; w < nproc(); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(qs); i += nproc() {
				want[i].a, want[i].err = oracle(tb, &qs[i])
			}
		}(w)
	}
	wg.Wait()

	tgt := e.targets[0]
	twin := &engineTarget{eng: e.eng}
	perClass := map[int][]float64{}
	h := fnv.New64a()
	var word [8]byte
	fail := func(q *query, msg string) {
		pr.failed++
		if len(pr.failures) < 10 {
			pr.failures = append(pr.failures, fmt.Sprintf("probe %q: %s", q.sql, msg))
		}
	}
	for i := range qs {
		q := &qs[i]
		pr.attempted++
		got, err := tgt.query(q)
		if !validAnswer(q, got, err) {
			fail(q, fmt.Sprintf("not a valid answer: %+v, %v", got, err))
			continue
		}
		binary.LittleEndian.PutUint64(word[:], math.Float64bits(got.value))
		h.Write(word[:])
		for _, gv := range got.groups {
			binary.LittleEndian.PutUint64(word[:], math.Float64bits(gv.value))
			h.Write(word[:])
		}
		if want[i].err != nil {
			fail(q, "oracle: "+want[i].err.Error())
			continue
		}
		re, complaint := probeError(q, got, want[i].a)
		if complaint != "" {
			fail(q, complaint)
			continue
		}
		if classes[q.class].probe == probeModel {
			perClass[q.class] = append(perClass[q.class], re)
			pr.relErr = append(pr.relErr, re)
		}
		if e.w.http {
			same, err := twin.query(q)
			if err != nil || same.value != got.value || same.source != got.source || len(same.groups) != len(got.groups) {
				fail(q, fmt.Sprintf("HTTP answered %v (%s), the in-process engine %v (%s), %v",
					got.value, got.source, same.value, same.source, err))
			}
		}
	}
	pr.attempted += len(perClass)
	for _, c := range classCeilings(perClass, math.Sqrt(fullRows/float64(e.cfg.rows))) {
		pr.failed++
		pr.failures = append(pr.failures, c)
	}
	sort.Float64s(pr.relErr)
	pr.digest = h.Sum64()
	return pr
}
