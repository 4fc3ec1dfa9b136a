package dbest

import (
	"sync"
	"sync/atomic"

	"dbest/internal/exec"
	"dbest/internal/workload"
)

// The error-budget router. A query carrying a WITHIN <p>% clause (or a
// tolerance field on the HTTP API) is served from the models only when
// every aggregate's predicted relative error — calibrated by what the
// router has observed for those models so far — fits the budget; otherwise
// it falls through to the exact scan. Each fallback is also a free ground
// truth: the exact answer is compared against the model's, and the
// observed-vs-predicted ratio feeds a per-model-key ring buffer whose
// clamped mean scales future routing decisions. Answers keep their raw
// (uncalibrated) CI and PredRelErr; calibration only moves the routing
// threshold.

const (
	// routerRingCap bounds the per-model-key observation history; old
	// observations age out so a retrained model's improved accuracy is
	// re-learned within a window, not averaged against its past forever.
	routerRingCap = 32
	// calibFactorMin/Max clamp the calibration factor: observations can at
	// most quarter or quadruple the trust in a model's own error estimate,
	// so a few pathological ground truths cannot pin the router open or
	// shut.
	calibFactorMin = 0.25
	calibFactorMax = 4.0
)

// calibRing is a fixed-capacity ring of observed/predicted relative-error
// ratios for one model key. Callers hold the router mutex.
type calibRing struct {
	ratios [routerRingCap]float64
	n      int // filled slots (saturates at routerRingCap)
	next   int // write cursor
}

func (r *calibRing) add(v float64) {
	r.ratios[r.next] = v
	r.next = (r.next + 1) % routerRingCap
	if r.n < routerRingCap {
		r.n++
	}
}

// factor is the clamped mean ratio, or 1 with no observations yet.
func (r *calibRing) factor() float64 {
	if r.n == 0 {
		return 1
	}
	s := 0.0
	for _, v := range r.ratios[:r.n] {
		s += v
	}
	f := s / float64(r.n)
	if f < calibFactorMin {
		return calibFactorMin
	}
	if f > calibFactorMax {
		return calibFactorMax
	}
	return f
}

// routerState is the engine's routing counters plus the per-model-key
// calibration rings. Counters are atomic (read lock-free by /stats); the
// rings are tiny and touched only on tolerance-routed queries, so a plain
// mutex suffices.
type routerState struct {
	modelHits      atomic.Uint64
	exactFallbacks atomic.Uint64
	observations   atomic.Uint64

	mu    sync.Mutex
	rings map[string]*calibRing
}

// factor returns the calibration factor for one model key (1 when the
// router has no history for it).
func (rt *routerState) factor(key string) float64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if r, ok := rt.rings[key]; ok {
		return r.factor()
	}
	return 1
}

// observe records one observed/predicted relative-error ratio for key.
func (rt *routerState) observe(key string, ratio float64) {
	rt.observations.Add(1)
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.rings == nil {
		rt.rings = make(map[string]*calibRing)
	}
	r := rt.rings[key]
	if r == nil {
		r = &calibRing{}
		rt.rings[key] = r
	}
	r.add(ratio)
}

// RouterStats is a snapshot of the error-budget router's counters.
type RouterStats struct {
	// ModelHits counts tolerance-carrying queries served from the models
	// (predicted error fit the budget).
	ModelHits uint64 `json:"router_model_hits"`
	// ExactFallbacks counts tolerance-carrying queries that fell through to
	// the exact scan (predicted error exceeded the budget, was unknown, or
	// the model evaluation failed).
	ExactFallbacks uint64 `json:"router_exact_fallbacks"`
	// Observations counts observed-vs-predicted ground truths fed into the
	// calibration rings (one per scalar aggregate per fallback).
	Observations uint64 `json:"router_observations"`
	// TrackedModels counts model keys with at least one calibration
	// observation.
	TrackedModels int `json:"router_tracked_models"`
}

// RouterStats returns the engine's error-budget router counters.
func (e *Engine) RouterStats() RouterStats {
	e.router.mu.Lock()
	tracked := len(e.router.rings)
	e.router.mu.Unlock()
	return RouterStats{
		ModelHits:      e.router.modelHits.Load(),
		ExactFallbacks: e.router.exactFallbacks.Load(),
		Observations:   e.router.observations.Load(),
		TrackedModels:  tracked,
	}
}

// route answers a WITHIN-budget query: run the model plan, serve it if every
// aggregate's calibrated prediction fits the budget, else fall through to
// the eagerly-planned exact fallback — feeding the model-vs-exact comparison
// back into the calibration ring on the way. Both plans read the same bind
// vector from env.
func (e *Engine) route(sh *shape, env *exec.Env) (*exec.Result, error) {
	mres, merr := sh.plan.Run(env)
	if merr == nil && e.router.withinBudget(sh, mres) {
		e.router.modelHits.Add(1)
		return mres, nil
	}
	e.router.exactFallbacks.Add(1)
	eres, err := sh.exactPlan.Run(env)
	if err != nil {
		return nil, err
	}
	if merr == nil {
		e.router.feedback(sh, mres, eres)
	}
	return eres, nil
}

// withinBudget reports whether every aggregate's predicted relative error,
// scaled by the model key's calibration factor, fits the query's tolerance.
// An aggregate with unknown bounds (PredRelErr == 0 — old catalogs, tiny
// samples, raw-tuple groups) never fits: serving it would promise a budget
// nothing backs.
func (rt *routerState) withinBudget(sh *shape, res *exec.Result) bool {
	factor := rt.factor(sh.routerKey)
	for _, a := range res.Aggregates {
		if a.PredRelErr <= 0 || a.PredRelErr*factor > sh.tolerance {
			return false
		}
	}
	return len(res.Aggregates) > 0
}

// feedback records observed/predicted relative-error ratios from one
// model-vs-exact pair. Only scalar aggregates feed the ring: GROUP BY
// results would need per-group matching for a ground truth, and the scalar
// signal is plentiful enough to calibrate on.
func (rt *routerState) feedback(sh *shape, mres, eres *exec.Result) {
	if len(mres.Aggregates) != len(eres.Aggregates) {
		return
	}
	for i, m := range mres.Aggregates {
		if m.PredRelErr <= 0 || len(m.Groups) > 0 {
			continue
		}
		obs := workload.RelErr(m.Value, eres.Aggregates[i].Value)
		rt.observe(sh.routerKey, obs/m.PredRelErr)
	}
}
