package exec

import (
	"errors"
	"fmt"
	"strings"

	"dbest/internal/core"
	"dbest/internal/exact"
	"dbest/internal/sqlparse"
	"dbest/internal/table"
)

// Project is the plan root: it evaluates one child operator per select-list
// aggregate and assembles the query Result. On the exact path it first opens
// the shared source (base table or join), once per execution, and streams it
// through every ExactScan child.
type Project struct {
	path   string
	aggs   []AggOperator
	source SourceOperator // non-nil on the exact path
}

// NewProject builds the plan root. source must be non-nil exactly when path
// is PathExact.
func NewProject(path string, aggs []AggOperator, source SourceOperator) *Project {
	return &Project{path: path, aggs: aggs, source: source}
}

func (pr *Project) Operator() string { return "Project" }

func (pr *Project) Detail(Binds) string {
	d := "[" + pr.path + "]"
	if len(pr.aggs) != 1 {
		d += fmt.Sprintf(" aggs=%d", len(pr.aggs))
	}
	return d
}

func (pr *Project) Children(Binds) []Node {
	kids := make([]Node, 0, len(pr.aggs)+1)
	for _, a := range pr.aggs {
		kids = append(kids, a)
	}
	if pr.source != nil {
		kids = append(kids, pr.source)
	}
	return kids
}

func (pr *Project) eval(env *Env) (*Result, error) {
	res := &Result{Source: "model"}
	if pr.path == PathSketch {
		res.Source = "sketch"
	}
	var src *table.Table
	if pr.source != nil {
		res.Source = "exact"
		if src = env.Src; src == nil {
			var err error
			if src, err = pr.source.Open(env); err != nil {
				return nil, err
			}
		}
	}
	for _, a := range pr.aggs {
		ar, err := a.Eval(env, src)
		if err != nil {
			return nil, err
		}
		res.Aggregates = append(res.Aggregates, ar)
	}
	return res, nil
}

// wrapEmptyRegion converts ErrNoSupport into the engine's user-facing
// empty-selection message, preserving the sentinel for errors.Is.
func wrapEmptyRegion(name string, err error) error {
	if errors.Is(err, core.ErrNoSupport) {
		return fmt.Errorf("dbest: %s selects an empty region: %w", name, err)
	}
	return err
}

// ModelEval answers one aggregate from a single trained model pair — the
// paper's core primitive: numerical integration over D(x) and R(x) instead
// of a scan (§2.3, Eqs. 1–10). Multi is set for multivariate box predicates.
type ModelEval struct {
	AggName string
	AF      exact.AggFunc
	MS      *core.ModelSet
	Ranges  []Range // one per predicate column, in the model set's column order
	YIsX    bool
	P       int // bind slot of the PERCENTILE point, NoSlot without one
	Multi   bool

	// GroupModels, when > 0, marks this node as the per-group-model leaf of
	// a GroupMerge; it is descriptive only and the merge fuses its
	// execution into one parallel pass.
	GroupModels int
	// ShardModels, when > 0, marks this node as the per-shard-model leaf of
	// a ShardMerge: the count of shards the planned range overlaps. Like
	// GroupModels it is descriptive only.
	ShardModels int
}

func (m *ModelEval) Operator() string { return "ModelEval" }

func (m *ModelEval) Detail(b Binds) string {
	if m.GroupModels > 0 {
		return fmt.Sprintf("per-group models=%d", m.GroupModels)
	}
	if m.ShardModels > 0 {
		return fmt.Sprintf("per-shard models=%d", m.ShardModels)
	}
	return fmt.Sprintf("%s model=%s range=%s kernel=%s",
		m.AggName, m.MS.Key(), rangeString(b, m.Ranges...), m.MS.EvalKernel()) +
		boundsTag(m.relErrAt(b))
}

// relErrAt is the predicted relative error at the statement's bounds — the
// EXPLAIN annotation value. 0 (no tag) for multivariate models, which carry
// no error predictor.
func (m *ModelEval) relErrAt(b Binds) float64 {
	if m.Multi || m.MS.Uni == nil {
		return 0
	}
	lb, ub := m.Ranges[0].bounds(b)
	return m.MS.Uni.PredictRelErr(m.AF, lb, ub)
}

func (m *ModelEval) Children(Binds) []Node { return nil }

func (m *ModelEval) Eval(env *Env, _ *table.Table) (AggregateResult, error) {
	var (
		ans *core.Answer
		err error
	)
	if m.Multi {
		lb, ub := make([]float64, len(m.Ranges)), make([]float64, len(m.Ranges))
		for i, r := range m.Ranges {
			lb[i], ub[i] = r.bounds(env.Binds)
		}
		ans, err = m.MS.EvaluateMulti(m.AF, lb, ub)
	} else {
		lb, ub := m.Ranges[0].bounds(env.Binds)
		ans, err = m.MS.EvaluateUni(m.AF, lb, ub, m.YIsX,
			&core.EvalOptions{Workers: env.Workers, P: point(env.Binds, m.P)})
	}
	if err != nil {
		return AggregateResult{}, wrapEmptyRegion(m.AggName, err)
	}
	return aggFromAnswer(m.AggName, ans), nil
}

// aggFromAnswer lifts a core.Answer into an AggregateResult, carrying the
// error bounds along — the one conversion shared by every model-path
// operator.
func aggFromAnswer(name string, ans *core.Answer) AggregateResult {
	return AggregateResult{Name: name, Value: ans.Value, Groups: ans.Groups,
		CI: ans.CI, PredRelErr: ans.PredRelErr}
}

// GroupMerge answers one aggregate over a grouped model set: it fans the
// evaluation out over every per-group model (and every raw small group) and
// merges the per-group answers in group order — the paper's GROUP BY
// strategy (§2.3). Its children describe the fan-out; execution is fused
// into one parallel pass over all groups.
type GroupMerge struct {
	AggName string
	AF      exact.AggFunc
	MS      *core.ModelSet
	Range   Range
	YIsX    bool
	P       int // bind slot of the PERCENTILE point, NoSlot without one
}

func (g *GroupMerge) Operator() string { return "GroupMerge" }

func (g *GroupMerge) Detail(b Binds) string {
	// The bounds tag reports the worst group model's prediction, matching
	// the answer-level PredRelErr the merge returns.
	lb, ub := g.Range.bounds(b)
	var worst float64
	for _, m := range g.MS.Groups {
		if re := m.PredictRelErr(g.AF, lb, ub); re > worst {
			worst = re
		}
	}
	return fmt.Sprintf("%s key=%s groupby=%s groups=%d", g.AggName, g.MS.Key(),
		g.MS.GroupBy, len(g.MS.Groups)+len(g.MS.Raw)) + boundsTag(worst)
}

func (g *GroupMerge) Children(Binds) []Node {
	var kids []Node
	if len(g.MS.Groups) > 0 {
		kids = append(kids, &ModelEval{GroupModels: len(g.MS.Groups)})
	}
	if len(g.MS.Raw) > 0 {
		kids = append(kids, &RawGroupEval{MS: g.MS})
	}
	return kids
}

func (g *GroupMerge) Eval(env *Env, _ *table.Table) (AggregateResult, error) {
	lb, ub := g.Range.bounds(env.Binds)
	ans, err := g.MS.EvaluateUni(g.AF, lb, ub, g.YIsX,
		&core.EvalOptions{Workers: env.Workers, P: point(env.Binds, g.P)})
	if err != nil {
		return AggregateResult{}, wrapEmptyRegion(g.AggName, err)
	}
	return aggFromAnswer(g.AggName, ans), nil
}

// RawGroupEval is the GroupMerge leaf answering the small groups kept as raw
// sample tuples instead of models (below ModelSpec.MinGroupModel); those
// groups are aggregated exactly over their retained tuples.
type RawGroupEval struct {
	MS *core.ModelSet
}

func (r *RawGroupEval) Operator() string { return "RawGroupEval" }
func (r *RawGroupEval) Detail(Binds) string {
	return fmt.Sprintf("raw groups=%d", len(r.MS.Raw))
}
func (r *RawGroupEval) Children(Binds) []Node { return nil }

// NominalEval answers one aggregate for rows with NominalBy equal to the
// statement's equality value, from the per-value model trained for that
// nominal value (§2.3, "Supporting Categorical Attributes").
type NominalEval struct {
	AggName string
	AF      exact.AggFunc
	MS      *core.ModelSet
	Eq      int // bind slot of the equality value
	Range   Range
	YIsX    bool
	P       int // bind slot of the PERCENTILE point, NoSlot without one
}

func (n *NominalEval) Operator() string { return "NominalEval" }

func (n *NominalEval) Detail(b Binds) string {
	var re float64
	if m, ok := n.MS.Nominal[b[n.Eq].Str]; ok {
		lb, ub := n.Range.bounds(b)
		re = m.PredictRelErr(n.AF, lb, ub)
	}
	return fmt.Sprintf("%s model=%s %s='%s' range=%s", n.AggName, n.MS.Key(),
		n.MS.NominalBy, b[n.Eq].Str, rangeString(b, n.Range)) +
		boundsTag(re)
}

func (n *NominalEval) Children(Binds) []Node { return nil }

func (n *NominalEval) Eval(env *Env, _ *table.Table) (AggregateResult, error) {
	lb, ub := n.Range.bounds(env.Binds)
	ans, err := n.MS.EvaluateNominal(n.AF, env.Binds[n.Eq].Str, lb, ub, n.YIsX,
		&core.EvalOptions{Workers: env.Workers, P: point(env.Binds, n.P)})
	if err != nil {
		return AggregateResult{}, wrapEmptyRegion(n.AggName, err)
	}
	return aggFromAnswer(n.AggName, ans), nil
}

// TableScan resolves one registered base table at execution time — the leaf
// of the exact path.
type TableScan struct {
	TableName string
	JoinSide  bool // right side of a join, for error wording
}

func (t *TableScan) Operator() string      { return "TableScan" }
func (t *TableScan) Detail(Binds) string   { return t.TableName }
func (t *TableScan) Children(Binds) []Node { return nil }

func (t *TableScan) Open(env *Env) (*table.Table, error) {
	if env.Tables == nil {
		return nil, fmt.Errorf("exec: no table resolver for exact scan of %q", t.TableName)
	}
	tb := env.Tables.Table(t.TableName)
	if tb == nil {
		if t.JoinSide {
			return nil, fmt.Errorf("dbest: no model for query and join table %q is not registered", t.TableName)
		}
		return nil, fmt.Errorf("dbest: no model for query and table %q is not registered", t.TableName)
	}
	return tb, nil
}

// JoinEval materializes FROM left JOIN right ON lk = rk once per execution
// and feeds the joined table to the ExactScan siblings above it.
type JoinEval struct {
	Left, Right       *TableScan
	LeftKey, RightKey string
}

func (j *JoinEval) Operator() string { return "JoinEval" }

func (j *JoinEval) Detail(Binds) string {
	return fmt.Sprintf("on %s.%s = %s.%s", j.Left.TableName, j.LeftKey, j.Right.TableName, j.RightKey)
}

func (j *JoinEval) Children(Binds) []Node { return []Node{j.Left, j.Right} }

func (j *JoinEval) Open(env *Env) (*table.Table, error) {
	lt, err := j.Left.Open(env)
	if err != nil {
		return nil, err
	}
	rt, err := j.Right.Open(env)
	if err != nil {
		return nil, err
	}
	return table.EquiJoin(lt, rt, j.LeftKey, j.RightKey)
}

// ExactScan answers one aggregate by streaming the materialized source
// table through the exact query processor — the fallback below the models
// in Fig. 1 of the paper. Agg, Where and Equals come from the query the plan
// was compiled from and are read for their columns and bind slots only: the
// literals are the executing statement's (Env.Binds).
type ExactScan struct {
	AggName string
	AF      exact.AggFunc
	Agg     sqlparse.Aggregate
	Where   []sqlparse.Predicate
	Equals  []sqlparse.Equality
	GroupBy string
}

func (s *ExactScan) Operator() string { return "ExactScan" }

func (s *ExactScan) Detail(b Binds) string {
	d := s.AggName
	if len(s.Where) > 0 {
		ranges := make([]Range, len(s.Where))
		for i, p := range s.Where {
			ranges[i] = Range{Lb: p.LbSlot, Ub: p.UbSlot}
		}
		d += " range=" + rangeString(b, ranges...)
	}
	for _, eq := range s.Equals {
		d += fmt.Sprintf(" %s='%s'", eq.Column, b[eq.Slot].Str)
	}
	if s.GroupBy != "" {
		d += " groupby=" + s.GroupBy
	}
	return d
}

func (s *ExactScan) Children(Binds) []Node { return nil }

func (s *ExactScan) Eval(env *Env, src *table.Table) (AggregateResult, error) {
	if src == nil {
		return AggregateResult{}, fmt.Errorf("exec: ExactScan %s has no input table", s.AggName)
	}
	var preds []exact.Range
	for _, p := range s.Where {
		preds = append(preds, exact.Range{Column: p.Column, Lb: env.Binds[p.LbSlot].Num, Ub: env.Binds[p.UbSlot].Num})
	}
	var eqs []exact.Equal
	for _, eq := range s.Equals {
		eqs = append(eqs, exact.Equal{Column: eq.Column, Value: env.Binds[eq.Slot].Str})
	}
	if s.Agg.Distinct || strings.EqualFold(s.Agg.Func, "TOP") {
		return s.evalSketchExact(src, preds, eqs)
	}
	req := exact.Request{AF: s.AF, Y: s.Agg.Column, Group: s.GroupBy, Predicates: preds, Equals: eqs}
	if s.Agg.HasP {
		req.P = env.Binds[s.Agg.PSlot].Num
	}
	if s.Agg.Column == "*" {
		if len(preds) > 0 {
			req.Y = preds[0].Column
		} else {
			// COUNT(*) needs some numeric column to stream through.
			req.Y = ""
			for _, c := range src.Columns {
				if c.Type != table.String {
					req.Y = c.Name
					break
				}
			}
			if req.Y == "" {
				return AggregateResult{}, fmt.Errorf("dbest: %s(*) on table %q needs a numeric column to count, but all columns are strings", s.Agg.Func, src.Name)
			}
		}
	}
	r, err := exact.Query(src, req)
	if err != nil {
		return AggregateResult{}, err
	}
	ar := AggregateResult{Name: s.AggName, Value: r.Value}
	if r.Groups != nil {
		for g, v := range r.Groups {
			ar.Groups = append(ar.Groups, core.GroupAnswer{Group: g, Value: v})
		}
		core.SortGroupAnswers(ar.Groups)
	}
	return ar, nil
}

// evalSketchExact answers COUNT(DISTINCT x) or TOP k(x) by exact scan — the
// fallback when no sketch covers the query (and the only path once range or
// equality predicates narrow the rows, which a whole-table sketch cannot).
func (s *ExactScan) evalSketchExact(src *table.Table, preds []exact.Range, eqs []exact.Equal) (AggregateResult, error) {
	if s.GroupBy != "" {
		return AggregateResult{}, fmt.Errorf("dbest: %s does not support GROUP BY", s.AggName)
	}
	if s.Agg.Distinct {
		v, err := exact.DistinctCount(src, s.Agg.Column, preds, eqs)
		if err != nil {
			return AggregateResult{}, err
		}
		return AggregateResult{Name: s.AggName, Value: v}, nil
	}
	entries, err := exact.TopValues(src, s.Agg.Column, s.Agg.K, preds, eqs)
	if err != nil {
		return AggregateResult{}, err
	}
	return AggregateResult{Name: s.AggName, Value: float64(len(entries)), TopK: entries}, nil
}

// DisplayName renders an aggregate for result labels and EXPLAIN details:
// "AVG(y)", "COUNT(DISTINCT x)", "TOP 10(x)".
func DisplayName(agg sqlparse.Aggregate) string {
	if strings.EqualFold(agg.Func, "TOP") {
		return fmt.Sprintf("TOP %d(%s)", agg.K, agg.Column)
	}
	if agg.Distinct {
		return fmt.Sprintf("%s(DISTINCT %s)", agg.Func, agg.Column)
	}
	return agg.Func + "(" + agg.Column + ")"
}

// NewModelEval builds the operator answering one aggregate from ms: a
// GroupMerge over per-group models when ms is grouped, a plain ModelEval
// otherwise (multivariate when len(ranges) >= 2). p is the bind slot of the
// PERCENTILE point, NoSlot without one.
func NewModelEval(name string, af exact.AggFunc, ms *core.ModelSet, ranges []Range, yIsX bool, p int) AggOperator {
	if ms.GroupBy != "" && len(ranges) == 1 {
		return &GroupMerge{AggName: name, AF: af, MS: ms, Range: ranges[0], YIsX: yIsX, P: p}
	}
	return &ModelEval{AggName: name, AF: af, MS: ms, Ranges: ranges,
		YIsX: yIsX, P: p, Multi: len(ranges) >= 2}
}

// NewNominalEval builds the operator answering one aggregate from the
// per-nominal-value models of ms; eq is the bind slot of the equality value.
func NewNominalEval(name string, af exact.AggFunc, ms *core.ModelSet, eq int, r Range, yIsX bool, p int) AggOperator {
	return &NominalEval{AggName: name, AF: af, MS: ms, Eq: eq, Range: r, YIsX: yIsX, P: p}
}

// NewExactPlan compiles q into an exact-path plan: per-aggregate ExactScan
// operators over a shared TableScan (or JoinEval) source. reason records why
// the planner fell through to the exact engine.
func NewExactPlan(q *sqlparse.Query, reason string) (*Plan, error) {
	var src SourceOperator = &TableScan{TableName: q.Table}
	if q.Join != nil {
		src = &JoinEval{
			Left:     &TableScan{TableName: q.Table},
			Right:    &TableScan{TableName: q.Join.Table, JoinSide: true},
			LeftKey:  stripQualifier(q.Join.LeftKey),
			RightKey: stripQualifier(q.Join.RightKey),
		}
	}
	aggs := make([]AggOperator, 0, len(q.Aggregates))
	for _, agg := range q.Aggregates {
		scan := &ExactScan{
			AggName: DisplayName(agg),
			Agg:     agg,
			Where:   q.Where,
			Equals:  q.Equals,
			GroupBy: q.GroupBy,
		}
		// DISTINCT and TOP bypass the moment accumulator; everything else
		// resolves to one of the exact aggregate functions.
		if !agg.Distinct && !strings.EqualFold(agg.Func, "TOP") {
			af, err := exact.ParseAggFunc(agg.Func)
			if err != nil {
				return nil, err
			}
			scan.AF = af
		}
		aggs = append(aggs, scan)
	}
	return NewPlan(PathExact, reason, NewProject(PathExact, aggs, src)), nil
}

func stripQualifier(col string) string {
	if i := strings.LastIndexByte(col, '.'); i >= 0 {
		return col[i+1:]
	}
	return col
}
