// Package exec is DBEst's physical execution layer. The planner (package
// dbest) resolves a parsed query against the model catalog and compiles it
// into a small tree of physical operators — ModelEval, GroupMerge,
// NominalEval, ExactScan, JoinEval — and the tree then executes without
// consulting the planner, the parser or the catalog again. A Plan is
// immutable after construction and safe for concurrent Run calls, which is
// what the engine's plan cache and the batched query API rely on: one
// parse/plan amortized over many executions.
//
// A plan is compiled for a query shape, not for one statement: operators
// hold the bind slots of the statement's literals (Range, and plain slot
// numbers for PERCENTILE points and equality values), and every execution —
// and every EXPLAIN rendering — reads the literals of its own statement from
// the bind vector it is handed.
package exec

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"

	"dbest/internal/core"
	"dbest/internal/sketch"
	"dbest/internal/sqlparse"
	"dbest/internal/table"
)

// Path values a plan can be routed down. They are the values reported by
// PreparedQuery.Path and EXPLAIN output.
const (
	PathModel   = "model"
	PathNominal = "nominal-model"
	PathSketch  = "sketch"
	PathExact   = "exact"
)

// Node is one operator in a physical plan tree. Every operator renders
// itself for EXPLAIN via Operator/Detail and exposes its children so the
// tree can be walked generically.
type Node interface {
	// Operator is the operator name, e.g. "ModelEval".
	Operator() string
	// Detail is the one-line operator description shown in EXPLAIN, with
	// the literals of the statement whose bind vector is b.
	Detail(b Binds) string
	// Children returns the operator's child nodes in plan order.
	Children(b Binds) []Node
}

// AggOperator is an operator that answers one select-list aggregate. src is
// the materialized exact-path input table (nil on model paths).
type AggOperator interface {
	Node
	Eval(env *Env, src *table.Table) (AggregateResult, error)
}

// SourceOperator materializes the input table for exact-path scans. It is
// opened once per execution and shared by all ExactScan siblings.
type SourceOperator interface {
	Node
	Open(env *Env) (*table.Table, error)
}

// TableResolver resolves a registered base table at execution time; the
// engine's immutable snapshot implements it, so every resolution within one
// execution sees the same point-in-time table versions without locking.
// Resolution is deferred to execution (not plan time) so cached exact-path
// plans observe tables registered after planning — each Run binds the
// snapshot captured at its own call.
type TableResolver interface {
	Table(name string) *table.Table
}

// Binds is a statement's bind vector: the literals sqlparse.Shape lifted out
// of it, addressed by slot.
type Binds = []sqlparse.Bind

// Range names the bind slots holding one BETWEEN predicate's bounds.
type Range struct {
	Lb, Ub int
}

// Whole is the range of a predicate-free aggregate: the whole domain, read
// from no slot.
var Whole = Range{Lb: -1, Ub: -1}

// NoSlot is the slot number of a literal the statement does not have (the
// PERCENTILE point of any other aggregate).
const NoSlot = -1

func (r Range) bounds(b Binds) (lb, ub float64) {
	if r == Whole {
		return math.Inf(-1), math.Inf(1)
	}
	return b[r.Lb].Num, b[r.Ub].Num
}

// point reads a PERCENTILE point from its slot (0 for NoSlot).
func point(b Binds, slot int) float64 {
	if slot == NoSlot {
		return 0
	}
	return b[slot].Num
}

// ShardCounters accumulates shard-pruning statistics across executions:
// how many shard models ShardMerge operators evaluated and how many they
// skipped because the shard's range did not overlap the predicate. The
// engine owns one instance for its lifetime; the counters are atomic so
// concurrent executions update them without locks.
type ShardCounters struct {
	Evaluated atomic.Uint64
	Pruned    atomic.Uint64
}

// Env carries per-execution state through the operator tree. Operators
// never mutate it (the shared Shards counters are atomic); the engine
// builds one per execution so concurrent Runs of the same plan can carry
// different bind vectors.
type Env struct {
	// Workers bounds parallel per-group model evaluation (0 = GOMAXPROCS).
	Workers int
	// Tables resolves base tables for exact-path scans.
	Tables TableResolver
	// Binds is the executing statement's bind vector: the literals the
	// plan's operators address by slot.
	Binds Binds
	// Src, when non-nil, is a pre-materialized exact-path source table,
	// shared by callers that execute one plan many times (see
	// Plan.OpenSource); model-path plans ignore it.
	Src *table.Table
	// Shards, when non-nil, accumulates shard evaluation/pruning counts.
	Shards *ShardCounters
}

// AggregateResult is the answer for one select-list aggregate. On model
// paths, CI is the value's confidence interval [lo, hi] and PredRelErr the
// predicted relative error from the model's train-time error predictor;
// both zero when bounds are unknown (exact/sketch paths, models persisted
// before error bounds existed).
type AggregateResult struct {
	Name       string // e.g. "AVG(ss_sales_price)"
	Value      float64
	Groups     []core.GroupAnswer // populated for GROUP BY queries
	TopK       []sketch.Entry     // populated for TOP k(x) aggregates
	CI         [2]float64
	PredRelErr float64
}

// Result is one executed query's answer.
type Result struct {
	Aggregates []AggregateResult
	// Source reports which path answered: "model", "sketch" or "exact".
	Source string
}

// Plan is an executable physical plan: the routing decision the planner
// made plus the operator tree that implements it.
type Plan struct {
	// Path is "model", "nominal-model", "sketch" or "exact".
	Path string
	// Reason explains an exact-path decision; empty on model paths.
	Reason string

	root *Project
}

// NewPlan assembles a plan from its root projection.
func NewPlan(path, reason string, root *Project) *Plan {
	return &Plan{Path: path, Reason: reason, root: root}
}

// Run executes the plan once with the bind vector in env.
func (p *Plan) Run(env *Env) (*Result, error) {
	return p.root.eval(env)
}

// OpenSource materializes the plan's exact-path source (base table or
// join), or returns nil for model-path plans. Callers executing the same
// plan many times (RunBatch) open it once and pass it back via Env.Src so
// an equi-join is not re-materialized per execution.
func (p *Plan) OpenSource(env *Env) (*table.Table, error) {
	if p.root.source == nil {
		return nil, nil
	}
	return p.root.source.Open(env)
}

// ModelKeys lists the catalog keys of the model sets bound to the plan's
// aggregates, in select-list order (empty on the exact path). A sharded
// ensemble is summarized as one base key with an @K-shards suffix rather
// than K member keys.
func (p *Plan) ModelKeys() []string {
	var keys []string
	for _, a := range p.root.aggs {
		if sm, ok := a.(*ShardMerge); ok {
			keys = append(keys, fmt.Sprintf("%s@%d-shards", sm.Sets[0].BaseKey(), len(sm.Sets)))
			continue
		}
		if se, ok := a.(*SketchEval); ok {
			keys = append(keys, se.MS.Key())
			continue
		}
		if ms := boundModelSet(a); ms != nil {
			keys = append(keys, ms.Key())
		}
	}
	return keys
}

// boundModelSet extracts the model set an aggregate operator evaluates, or
// nil for exact scans.
func boundModelSet(n Node) *core.ModelSet {
	switch op := n.(type) {
	case *ModelEval:
		return op.MS
	case *GroupMerge:
		return op.MS
	case *NominalEval:
		return op.MS
	}
	return nil
}

// Render returns the indented operator-tree rendering used by EXPLAIN:
//
//	Project [model]
//	└── GroupMerge AVG(y) key=gt|x|y|g groups=5
//	    ├── ModelEval per-group models=3
//	    └── RawGroupEval raw groups=2
//
// binds is the bind vector of the statement being explained: ranges, shard
// counts and bounds tags show its literals, whichever statement of the shape
// the plan was compiled from.
func (p *Plan) Render(binds Binds) string {
	var b strings.Builder
	writeNode(&b, p.root, binds, "", "")
	return b.String()
}

func writeNode(b *strings.Builder, n Node, binds Binds, head, indent string) {
	b.WriteString(head)
	b.WriteString(n.Operator())
	if d := n.Detail(binds); d != "" {
		b.WriteByte(' ')
		b.WriteString(d)
	}
	b.WriteByte('\n')
	kids := n.Children(binds)
	for i, k := range kids {
		branch, extend := "├── ", "│   "
		if i == len(kids)-1 {
			branch, extend = "└── ", "    "
		}
		writeNode(b, k, binds, indent+branch, indent+extend)
	}
}

// boundsTag renders the predicted-relative-error EXPLAIN annotation
// (" bounds=±1.2%", leading space included), or "" when the operator's
// models carry no fitted error predictor — the kernel= tag's sibling.
func boundsTag(re float64) string {
	if re <= 0 {
		return ""
	}
	return fmt.Sprintf(" bounds=±%.1f%%", re*100)
}

// rangeString formats predicate bounds for EXPLAIN details.
func rangeString(binds Binds, ranges ...Range) string {
	var b strings.Builder
	for i, r := range ranges {
		if i > 0 {
			b.WriteByte(',')
		}
		lb, ub := r.bounds(binds)
		fmt.Fprintf(&b, "[%g,%g]", lb, ub)
	}
	return b.String()
}
