package dbest

import (
	"context"
	"fmt"
	"strings"
	"time"

	"dbest/internal/sqlparse"
)

// Statement execution: Engine.Exec runs one top-level statement — a SELECT
// query or one of the model-definition statements — through the same
// parse → plan → execute path. It is the single front door the CLI stdin
// loop and the HTTP server feed raw statements to, so training is as
// declarative as querying:
//
//	CREATE MODEL revenue ON sales(date; price) SHARDS 8 SAMPLE 10000
//	CREATE SKETCH buyers ON sales(customer_id) TYPE HLL PRECISION 14
//	SHOW MODELS
//	DROP MODEL revenue
//	SELECT AVG(price) FROM sales WHERE date BETWEEN 100 AND 200
//	SELECT COUNT(DISTINCT customer_id) FROM sales

// StmtResult is the outcome of one Exec call; exactly the fields for its
// Kind are set.
type StmtResult struct {
	// Kind is "select", "create-model", "create-sketch", "drop-model" or
	// "show-models".
	Kind string
	// Query is the SELECT result.
	Query *Result
	// Train reports what CREATE MODEL / CREATE SKETCH built.
	Train *TrainInfo
	// Spec is the validated spec CREATE MODEL / CREATE SKETCH executed.
	Spec *ModelSpec
	// Dropped lists the catalog keys DROP MODEL removed.
	Dropped []string
	// Models is the SHOW MODELS listing.
	Models []ModelInfo

	Elapsed time.Duration
}

// Exec parses and executes one statement (see ExecContext).
func (e *Engine) Exec(sql string) (*StmtResult, error) {
	return e.ExecContext(context.Background(), sql)
}

// ExecContext parses and executes one statement. SELECT queries go through
// the plan cache exactly as Engine.Query; CREATE MODEL lowers the parsed
// statement to a ModelSpec and executes it via CreateModel under ctx (a
// canceled context aborts the training at the next fit boundary); DROP
// MODEL and SHOW MODELS hit the catalog directly.
func (e *Engine) ExecContext(ctx context.Context, sql string) (*StmtResult, error) {
	t0 := time.Now()
	st, err := sqlparse.ParseStatement(sql)
	if err != nil {
		return nil, err
	}
	res := &StmtResult{}
	switch {
	case st.Select != nil:
		res.Kind = "select"
		// Re-enter through Prepare rather than planning st.Select directly:
		// repeated query shapes must keep hitting the plan cache.
		p, err := e.Prepare(sql)
		if err != nil {
			return nil, err
		}
		if res.Query, err = p.Run(); err != nil {
			return nil, err
		}
	case st.CreateModel != nil:
		res.Kind = "create-model"
		spec := specFromStatement(st.CreateModel)
		if res.Train, err = e.CreateModel(ctx, spec); err != nil {
			return nil, err
		}
		res.Spec = spec
	case st.CreateSketch != nil:
		res.Kind = "create-sketch"
		spec := specFromSketchStatement(st.CreateSketch)
		if res.Train, err = e.CreateModel(ctx, spec); err != nil {
			return nil, err
		}
		res.Spec = spec
	case st.DropModel != nil:
		res.Kind = "drop-model"
		if res.Dropped, err = e.DropModel(st.DropModel.Name); err != nil {
			return nil, err
		}
	case st.ShowModels:
		res.Kind = "show-models"
		res.Models = e.Models()
	default:
		return nil, fmt.Errorf("dbest: unsupported statement %q", sql)
	}
	res.Elapsed = time.Since(t0)
	return res, nil
}

// specFromStatement lowers a parsed CREATE MODEL statement to the spec
// CreateModel executes; Validate does the semantic checking.
func specFromStatement(cm *sqlparse.CreateModelStmt) *ModelSpec {
	spec := &ModelSpec{
		Name:       cm.Name,
		Table:      cm.Table,
		XCols:      append([]string(nil), cm.XCols...),
		YCol:       cm.YCol,
		GroupBy:    cm.GroupBy,
		NominalBy:  cm.NominalBy,
		Shards:     cm.Shards,
		SampleSize: cm.Sample,
		Seed:       cm.Seed,
	}
	if cm.Join != nil {
		spec.Join = &JoinSpec{
			Table:    cm.Join.Table,
			LeftKey:  cm.Join.LeftKey,
			RightKey: cm.Join.RightKey,
		}
		if cm.FracDen != 0 {
			spec.Join.Sampled = true
			spec.Join.SampleNum, spec.Join.SampleDenom = cm.FracNum, cm.FracDen
		}
	}
	return spec
}

// specFromSketchStatement lowers a parsed CREATE SKETCH statement to a
// sketch spec; Validate does the semantic checking. An omitted TYPE
// defaults to HLL.
func specFromSketchStatement(cs *sqlparse.CreateSketchStmt) *ModelSpec {
	typ := cs.Type
	if typ == "" {
		typ = "hll"
	}
	return &ModelSpec{
		Name:      cs.Name,
		Table:     cs.Table,
		XCols:     []string{cs.Col},
		Sketch:    strings.ToLower(typ),
		Precision: cs.Precision,
		TopK:      cs.K,
	}
}
