package experiments

import (
	"fmt"

	"dbest/internal/baseline"
	"dbest/internal/core"
	"dbest/internal/workload"
)

// The sensitivity analysis of §4.2 uses the TPC-DS column pair
// [ss_list_price, ss_wholesale_cost]: a range predicate on the list price,
// aggregates over the wholesale cost.
const (
	sensX = "ss_list_price"
	sensY = "ss_wholesale_cost"
)

func init() {
	register("fig2", "influence of sample size on relative error (§4.2.1)", fig2)
	register("fig3", "influence of sample size on response time (§4.2.1)", fig3)
	register("fig4", "DBEst vs VerdictDB training time and space overhead (§4.2.1)", fig4)
	register("fig5", "influence of query range on relative error (§4.2.2)", fig5)
	register("fig6", "influence of query range on response time (§4.2.2)", fig6)
}

// sensBatches trains one model per sample size and evaluates the §4.2 query
// mix (200 random queries per AF in the paper; cfg.PerAF here).
func sensBatches(cfg Config, rangeFrac float64) ([]*batch, error) {
	tb := storeSales(cfg.Rows, cfg.Seed)
	qs, err := workload.Generate(tb, workload.Spec{
		XCol: sensX, YCol: sensY, AFs: afOrder,
		RangeFrac: rangeFrac, PerAF: cfg.PerAF, Seed: cfg.Seed, P: 0.5,
	})
	if err != nil {
		return nil, err
	}
	out := make([]*batch, 0, len(cfg.SampleSizes))
	for _, ss := range cfg.SampleSizes {
		ms, err := core.Train(tb, []string{sensX}, sensY, &core.TrainConfig{
			SampleSize: ss, Seed: cfg.Seed, Workers: cfg.Workers,
		})
		if err != nil {
			return nil, err
		}
		b, err := evalBatch(tb, qs, modelAnswerer(ms, 1))
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

func sampleLabel(ss int) string {
	switch {
	case ss >= 1_000_000:
		return fmt.Sprintf("%dm", ss/1_000_000)
	case ss >= 1_000:
		return fmt.Sprintf("%dk", ss/1_000)
	default:
		return fmt.Sprintf("%d", ss)
	}
}

// fig2 — Fig. 2: relative error per AF, one series per sample size. Query
// ranges fixed at 1% of the domain, as in the paper.
func fig2(cfg Config) (*FigureResult, error) {
	batches, err := sensBatches(cfg, 0.01)
	if err != nil {
		return nil, err
	}
	fr := &FigureResult{
		ID: "fig2", Title: "Influence of Sample Size on Relative Error",
		XLabel: "aggregate function", YLabel: "relative error (%)",
		Labels: afLabels(afOrder, false),
	}
	for i, ss := range cfg.SampleSizes {
		vals := make([]float64, len(afOrder))
		for j, af := range afOrder {
			vals[j] = pct(batches[i].meanErr(af))
		}
		fr.AddSeries(sampleLabel(ss), vals...)
	}
	fr.Note("paper: relative error < 10%% at 10k samples, < 1%% at 1m samples")
	return fr, nil
}

// fig3 — Fig. 3: response time per AF, one series per sample size.
func fig3(cfg Config) (*FigureResult, error) {
	batches, err := sensBatches(cfg, 0.01)
	if err != nil {
		return nil, err
	}
	fr := &FigureResult{
		ID: "fig3", Title: "Influence of Sample Size on Response Time",
		XLabel: "aggregate function", YLabel: "query response time (s)",
		Labels: afLabels(afOrder, false),
	}
	for i, ss := range cfg.SampleSizes {
		vals := make([]float64, len(afOrder))
		for j, af := range afOrder {
			vals[j] = batches[i].meanTime(af)
		}
		fr.AddSeries(sampleLabel(ss), vals...)
	}
	fr.Note("paper: ~100ms at 10k samples; PERCENTILE slowest (iterative bisection)")
	return fr, nil
}

// fig4 — Fig. 4: state-building time and space overhead, DBEst (sampling +
// model training, models kept) vs VerdictDB (sampling, samples kept),
// across sample sizes.
func fig4(cfg Config) (*FigureResult, error) {
	tb := storeSales(cfg.Rows, cfg.Seed)
	fr := &FigureResult{
		ID: "fig4", Title: "DBEst vs VerdictDB Overheads (training time, space)",
		XLabel: "sample size", YLabel: "seconds / MB",
	}
	var dbTime, vTime, dbSpace, vSpace []float64
	for _, ss := range cfg.SampleSizes {
		fr.Labels = append(fr.Labels, sampleLabel(ss))
		ms, err := core.Train(tb, []string{sensX}, sensY, &core.TrainConfig{
			SampleSize: ss, Seed: cfg.Seed, Workers: cfg.Workers,
		})
		if err != nil {
			return nil, err
		}
		dbTime = append(dbTime, secs(ms.Stats.SampleTime+ms.Stats.TrainTime))
		dbSpace = append(dbSpace, mb(ms.Stats.ModelBytes))

		v, err := baseline.NewVerdictSim(tb, ss, cfg.Scale, cfg.Seed)
		if err != nil {
			return nil, err
		}
		vTime = append(vTime, secs(v.Stats.SampleTime))
		vSpace = append(vSpace, mb(v.Stats.Bytes))
	}
	fr.AddSeries("DBEst train time (s)", dbTime...)
	fr.AddSeries("VerdictSim sample time (s)", vTime...)
	fr.AddSeries("DBEst space (MB)", dbSpace...)
	fr.AddSeries("VerdictSim space (MB)", vSpace...)
	fr.Note("paper: DBEst space 1-2 orders of magnitude below VerdictDB's samples")
	return fr, nil
}

// fig5 — Fig. 5: relative error per AF as the query range grows
// (0.1%, 1%, 10% of the domain), sample size fixed at 100k (the second
// configured size, or the only one).
func fig5(cfg Config) (*FigureResult, error) {
	return rangeSweep(cfg, "fig5", "Influence of Query Range on Relative Error", true)
}

// fig6 — Fig. 6: response time per AF across query ranges.
func fig6(cfg Config) (*FigureResult, error) {
	return rangeSweep(cfg, "fig6", "Influence of Query Range on Response Time", false)
}

func rangeSweep(cfg Config, id, title string, wantErr bool) (*FigureResult, error) {
	tb := storeSales(cfg.Rows, cfg.Seed)
	ss := cfg.SampleSizes[len(cfg.SampleSizes)-1]
	ms, err := core.Train(tb, []string{sensX}, sensY, &core.TrainConfig{
		SampleSize: ss, Seed: cfg.Seed, Workers: cfg.Workers,
	})
	if err != nil {
		return nil, err
	}
	fr := &FigureResult{
		ID: id, Title: title,
		XLabel: "aggregate function", Labels: afLabels(afOrder, false),
	}
	if wantErr {
		fr.YLabel = "relative error (%)"
	} else {
		fr.YLabel = "query response time (s)"
	}
	for _, frac := range []float64{0.001, 0.01, 0.1} {
		qs, err := workload.Generate(tb, workload.Spec{
			XCol: sensX, YCol: sensY, AFs: afOrder,
			RangeFrac: frac, PerAF: cfg.PerAF, Seed: cfg.Seed, P: 0.5,
		})
		if err != nil {
			return nil, err
		}
		b, err := evalBatch(tb, qs, modelAnswerer(ms, 1))
		if err != nil {
			return nil, err
		}
		vals := make([]float64, len(afOrder))
		for j, af := range afOrder {
			if wantErr {
				vals[j] = pct(b.meanErr(af))
			} else {
				vals[j] = b.meanTime(af)
			}
		}
		fr.AddSeries(fmt.Sprintf("%g%% query range", frac*100), vals...)
	}
	if wantErr {
		fr.Note("paper: error decreases as ranges grow (more sample support per range)")
	} else {
		fr.Note("paper: times grow with range (longer integration intervals); here the train-time grid makes response time flat in range width (two table lookups per integral, whatever the range)")
	}
	return fr, nil
}
