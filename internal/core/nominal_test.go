package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"math"
	"testing"

	"dbest/internal/exact"
	"dbest/internal/table"
)

// nominalTable: two channels with different y scales, plus a rare channel
// small enough to be kept raw.
func nominalTable() *table.Table {
	var xs, ys []float64
	var cs []string
	add := func(ch string, n int, scale float64) {
		for i := 0; i < n; i++ {
			x := float64(i%100) + 1
			xs = append(xs, x)
			ys = append(ys, scale*x)
			cs = append(cs, ch)
		}
	}
	add("a", 5000, 1)
	add("b", 3000, 10)
	add("rare", 10, 100)
	tb := table.New("nt")
	tb.AddFloatColumn("x", xs)
	tb.AddFloatColumn("y", ys)
	tb.AddStringColumn("ch", cs)
	return tb
}

func TestTrainNominalCore(t *testing.T) {
	tb := nominalTable()
	ms, err := TrainNominalContext(context.Background(), tb, "x", "y", "ch", &TrainConfig{SampleSize: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms.Nominal) != 2 || len(ms.NominalRaw) != 1 {
		t.Fatalf("nominal=%d raw=%d", len(ms.Nominal), len(ms.NominalRaw))
	}
	if ms.NumModels() != 2 {
		t.Fatalf("NumModels = %d", ms.NumModels())
	}
	if ms.Key() != "nt|x|y|#ch" {
		t.Fatalf("key = %q", ms.Key())
	}
	// Per-channel AVG over x in [40, 60]: E[y] = scale·50 (x uniform ints).
	for ch, scale := range map[string]float64{"a": 1, "b": 10} {
		ans, err := ms.EvaluateNominal(exact.Avg, ch, 40, 60, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(ans.Value-scale*50)/(scale*50) > 0.05 {
			t.Errorf("channel %s AVG = %v, want ≈ %v", ch, ans.Value, scale*50)
		}
	}
	// Raw channel answered exactly from its tuples.
	ans, err := ms.EvaluateNominal(exact.Count, "rare", 0, 200, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Value != 10 {
		t.Fatalf("rare COUNT = %v, want 10", ans.Value)
	}
	// Unknown value.
	if _, err := ms.EvaluateNominal(exact.Avg, "ghost", 0, 1, false, nil); err == nil {
		t.Fatal("want error for unknown nominal value")
	}
}

func TestTrainNominalErrorsCore(t *testing.T) {
	tb := nominalTable()
	if _, err := TrainNominalContext(context.Background(), table.New("e"), "x", "y", "ch", nil); err == nil {
		t.Fatal("want error for empty table")
	}
	if _, err := TrainNominalContext(context.Background(), tb, "nope", "y", "ch", nil); err == nil {
		t.Fatal("want error for missing x")
	}
	if _, err := TrainNominalContext(context.Background(), tb, "x", "nope", "ch", nil); err == nil {
		t.Fatal("want error for missing y")
	}
	if _, err := TrainNominalContext(context.Background(), tb, "x", "y", "x", nil); err == nil {
		t.Fatal("want error for non-string nominal column")
	}
}

func TestNominalCountScalesWithScale(t *testing.T) {
	tb := nominalTable()
	ms, err := TrainNominalContext(context.Background(), tb, "x", "y", "ch", &TrainConfig{SampleSize: 2000, Seed: 1, Scale: 100})
	if err != nil {
		t.Fatal(err)
	}
	ans, err := ms.EvaluateNominal(exact.Count, "a", 0, 200, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ans.Value-500_000)/500_000 > 0.02 {
		t.Fatalf("scaled nominal COUNT = %v, want ≈ 500000", ans.Value)
	}
}

// TestTrainNominalDeterministic: the per-value models are seeded by their
// position in a fixed value order, not by map iteration order, so the same
// seed trains byte-identical model sets (it used to pick among len(values)
// seeds per value, which showed up as flapping EXPLAIN bounds= tags).
func TestTrainNominalDeterministic(t *testing.T) {
	tb := nominalTable()
	encode := func() []byte {
		ms, err := TrainNominalContext(context.Background(), tb, "x", "y", "ch", &TrainConfig{SampleSize: 300, Seed: 5, MinGroupModel: 30})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		for _, v := range []string{"a", "b"} { // gob writes maps in iteration order
			if err := gob.NewEncoder(&buf).Encode(ms.Nominal[v]); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	want := encode()
	for i := 0; i < 5; i++ {
		if !bytes.Equal(encode(), want) {
			t.Fatalf("training %d produced different nominal models from the same seed", i+2)
		}
	}
}
