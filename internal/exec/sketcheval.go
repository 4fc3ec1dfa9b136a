package exec

import (
	"fmt"

	"dbest/internal/core"
	"dbest/internal/table"
)

// SketchEval answers COUNT(DISTINCT x) or TOP k(x) from a registered
// sketch in constant time — no scan, no model integration. The bound
// sketch lives in the catalog like any model set and absorbs appended
// rows in place, so the same plan keeps answering fresh data without
// retraining.
type SketchEval struct {
	AggName  string
	MS       *core.ModelSet
	Distinct bool // COUNT(DISTINCT x); otherwise TOP k(x)
	K        int  // rank count for TOP
}

func (s *SketchEval) Operator() string { return "SketchEval" }

func (s *SketchEval) Detail(Binds) string {
	return fmt.Sprintf("%s sketch=%s kernel=%s", s.AggName, s.MS.Key(), s.MS.EvalKernel())
}

func (s *SketchEval) Children(Binds) []Node { return nil }

func (s *SketchEval) Eval(env *Env, _ *table.Table) (AggregateResult, error) {
	sk := s.MS.Sketch
	if sk == nil {
		return AggregateResult{}, fmt.Errorf("exec: model set %s bound to SketchEval carries no sketch", s.MS.Key())
	}
	if s.Distinct {
		v, err := sk.Distinct()
		if err != nil {
			return AggregateResult{}, err
		}
		return AggregateResult{Name: s.AggName, Value: v}, nil
	}
	entries, err := sk.Top(s.K)
	if err != nil {
		return AggregateResult{}, err
	}
	return AggregateResult{Name: s.AggName, Value: float64(len(entries)), TopK: entries}, nil
}

// NewSketchEval builds the operator answering one distinct/TOP aggregate
// from the sketch carried by ms.
func NewSketchEval(name string, ms *core.ModelSet, distinct bool, k int) AggOperator {
	return &SketchEval{AggName: name, MS: ms, Distinct: distinct, K: k}
}
