package dbest

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"dbest/internal/core"
	"dbest/internal/exec"
	"dbest/internal/parallel"
	"dbest/internal/sqlparse"
)

// BatchResult is one query's outcome in a batched execution. Errors are
// isolated per query: a malformed or unanswerable query fails alone without
// aborting the rest of the batch.
type BatchResult struct {
	// SQL is the input statement as submitted (empty for RunBatch, where
	// the inputs are parameter spans, not SQL strings).
	SQL    string
	Result *Result // nil when Err != nil
	Err    error
}

// Span is one range-parameter binding for PreparedQuery.RunBatch:
// replacement [Lb, Ub] bounds for the query's range predicate.
type Span struct {
	Lb, Ub float64
}

// QueryBatch answers many SQL queries in one call. Each distinct statement —
// same shape, same literals, however it is spelled — is executed exactly
// once, with the distinct statements fanning out over the engine's worker
// budget; duplicate instances then share that answer, so a batch of N
// identical queries costs one execution, not N (what that saves is an
// exact-path duplicate's table scan; statements that differ only in literals
// still share one plan through the plan cache). The whole batch binds one
// engine snapshot: every statement sees the same catalog generation and the
// same table versions, so a batch is a consistent point-in-time read even
// while trains and appends land concurrently. Results are returned in input
// order with per-query error isolation: a malformed or unanswerable
// statement fails its own instances and nothing else.
func (e *Engine) QueryBatch(sqls []string) []BatchResult {
	out := make([]BatchResult, len(sqls))
	snap := e.snap.Load()
	type stmt struct {
		sh      *shape
		binds   exec.Binds
		err     error
		res     *Result
		elapsed time.Duration // this statement's execution time
		served  bool
	}
	stmts := make([]*stmt, len(sqls))         // per input
	distinct := make([]*stmt, 0, len(sqls))   // first-seen order
	seen := make(map[string]*stmt, len(sqls)) // by shape key + binds
	var id []byte                             // reused key buffer
	for i, sql := range sqls {
		out[i].SQL = sql
		key, binds, err := sqlparse.Shape(id[:0], nil, sql)
		if err != nil {
			stmts[i] = &stmt{err: err} // unlexable: nothing to share
			continue
		}
		id = appendBinds(key, binds)
		st := seen[string(id)]
		if st == nil {
			st = &stmt{binds: binds}
			st.sh, st.err = e.resolve(snap, key, sql)
			seen[string(id)] = st
			distinct = append(distinct, st)
		}
		stmts[i] = st
	}
	parallel.ForEach(len(distinct), e.workers, func(i int) {
		st := distinct[i]
		if st.err != nil {
			return
		}
		// Each statement stamps its own execution time: batch items must
		// report what their statement cost, not share one whole-batch
		// elapsed.
		t0 := time.Now()
		st.res, st.err = e.serve(snap, st.sh, st.binds, nil)
		st.elapsed = time.Since(t0)
	})
	// Fan the shared answers out to every instance. Duplicates get deep
	// copies so callers may mutate one result without corrupting another.
	for i, st := range stmts {
		if st.err != nil {
			out[i].Err = st.err
			continue
		}
		out[i].Result = st.res
		if st.served {
			out[i].Result = cloneResult(st.res)
		}
		st.served = true
		out[i].Result.Elapsed = st.elapsed
	}
	return out
}

// appendBinds appends a bind vector's values to a shape key, making the
// identity of one statement: the key fixes how many binds follow and of
// which kind, and each is self-delimiting, so two different statements
// cannot render alike.
func appendBinds(key []byte, binds exec.Binds) []byte {
	for _, b := range binds {
		key = binary.LittleEndian.AppendUint64(key, math.Float64bits(b.Num))
		key = binary.AppendUvarint(key, uint64(len(b.Str)))
		key = append(key, b.Str...)
	}
	return key
}

// cloneResult deep-copies a Result so batch duplicates do not alias the
// original's aggregate and group slices.
func cloneResult(r *Result) *Result {
	out := *r
	out.Aggregates = append([]AggregateResult(nil), r.Aggregates...)
	for i := range out.Aggregates {
		if g := out.Aggregates[i].Groups; g != nil {
			out.Aggregates[i].Groups = append([]core.GroupAnswer(nil), g...)
		}
	}
	return &out
}

// RunBatch executes the prepared query once per span, substituting each
// span for the query's single range predicate: one plan, run for many
// ranges in parallel. (It predates bind vectors, which now give every
// statement this treatment: Engine.Query of the spelled-out statements
// shares the same plan and returns the same answers.) The query must have
// exactly one range predicate. Results are returned in span order with
// per-execution error isolation.
func (p *PreparedQuery) RunBatch(spans []Span) ([]BatchResult, error) {
	where := p.sh.query.Where
	if len(where) != 1 {
		return nil, fmt.Errorf("dbest: RunBatch needs a query with exactly one range predicate, got %d", len(where))
	}
	// Materialize the exact-path source (base table or equi-join) once for
	// the whole batch instead of once per span, against one engine snapshot.
	snap := p.eng.snap.Load()
	src, err := p.sh.plan.OpenSource(&exec.Env{Tables: snap})
	if err != nil {
		return nil, err
	}
	out := make([]BatchResult, len(spans))
	parallel.ForEach(len(spans), p.eng.workers, func(i int) {
		binds := append(exec.Binds(nil), p.binds...)
		binds[where[0].LbSlot].Num, binds[where[0].UbSlot].Num = spans[i].Lb, spans[i].Ub
		t0 := time.Now()
		res, err := p.eng.serve(snap, p.sh, binds, src)
		if err != nil {
			out[i].Err = err
			return
		}
		res.Elapsed = time.Since(t0)
		out[i].Result = res
	})
	return out, nil
}
