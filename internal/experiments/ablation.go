package experiments

import (
	"fmt"

	"dbest/internal/core"
	"dbest/internal/workload"
)

func init() {
	register("ablation", "design-choice ablations: regressor family and KDE grid resolution", ablation)
}

// ablation quantifies two of the paper's design choices (README,
// "Reproducing the paper's evaluation"):
//
//  1. regression family — the paper's learned-selector ensemble vs each
//     constituent alone (GBoost, XGBoost-style, piecewise linear);
//  2. density-estimator grid resolution (binned-KDE bins).
//
// For each variant it reports overall relative error on the §4.2 query
// mix, training time, and model size.
func ablation(cfg Config) (*FigureResult, error) {
	tb := storeSales(cfg.Rows, cfg.Seed)
	ss := cfg.SampleSizes[0]
	qs, err := workload.Generate(tb, workload.Spec{
		XCol: sensX, YCol: sensY, AFs: csaOrder,
		RangeFrac: 0.01, PerAF: cfg.PerAF, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	fr := &FigureResult{
		ID: "ablation", Title: "Ablations: regressor family / KDE bins",
		XLabel: "metric", YLabel: "error (%) / seconds / MB",
		Labels: []string{"err%", "train_s", "model_MB"},
	}
	type variant struct {
		name string
		cfg  core.TrainConfig
	}
	variants := []variant{
		{"ensemble(default)", core.TrainConfig{SampleSize: ss, Seed: cfg.Seed}},
		{"gboost-only", core.TrainConfig{SampleSize: ss, Seed: cfg.Seed, Regressor: "gboost"}},
		{"xgboost-only", core.TrainConfig{SampleSize: ss, Seed: cfg.Seed, Regressor: "xgboost"}},
		{"plr-only", core.TrainConfig{SampleSize: ss, Seed: cfg.Seed, Regressor: "plr"}},
		{"kde-bins-128", core.TrainConfig{SampleSize: ss, Seed: cfg.Seed, Bins: 128}},
		{"kde-bins-4096", core.TrainConfig{SampleSize: ss, Seed: cfg.Seed, Bins: 4096}},
	}
	for _, v := range variants {
		v.cfg.Workers = cfg.Workers
		ms, err := core.Train(tb, []string{sensX}, sensY, &v.cfg)
		if err != nil {
			return nil, fmt.Errorf("variant %s: %w", v.name, err)
		}
		b, err := evalBatch(tb, qs, modelAnswerer(ms, 1))
		if err != nil {
			return nil, fmt.Errorf("variant %s: %w", v.name, err)
		}
		fr.AddSeries(v.name,
			pct(b.overallErr()),
			secs(ms.Stats.SampleTime+ms.Stats.TrainTime),
			mb(ms.Stats.ModelBytes))
	}
	fr.Note("ensemble should match or beat its best constituent; PLR is fastest/smallest but weakest on curvature; bins trade model size for density resolution")
	return fr, nil
}
