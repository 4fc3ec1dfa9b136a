package dbest

import (
	"bytes"
	"context"
	"encoding/gob"
	"maps"
	"os"
	"slices"
	"strings"
	"testing"

	"dbest/internal/core"
	"dbest/internal/datagen"
)

// gridOffCatalog was saved by the last commit that could train without an
// evaluation grid: over datagen.StoreSales{Rows: 3000, Stores: 2, Seed: 6},
// "dates_off" (ss_sold_date_sk → ss_sales_price, SAMPLE 500 SEED 3) and
// "stores_off" (ss_list_price → ss_net_profit GROUP BY ss_store_sk, SAMPLE
// 100 SEED 4), both trained GRID OFF.
const gridOffCatalog = "testdata/catalog/gridoff.gob"

// uniModels lists a set's univariate models: the plain one, then its groups
// in group order.
func uniModels(ms *core.ModelSet) []*core.UniModel {
	var out []*core.UniModel
	if ms.Uni != nil {
		out = append(out, ms.Uni)
	}
	for _, g := range slices.Sorted(maps.Keys(ms.Groups)) {
		out = append(out, ms.Groups[g])
	}
	return out
}

// gobBytes encodes v, so two grids compare bit for bit.
func gobBytes(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGridOffCatalogLoadsWithRebuiltGrid: a catalog whose models were saved
// without grids loads; each model gets the grid a training run of its spec
// builds, bit for bit, and serves from it.
func TestGridOffCatalogLoadsWithRebuiltGrid(t *testing.T) {
	f, err := os.Open(gridOffCatalog)
	if err != nil {
		t.Fatal(err)
	}
	var raw []*core.ModelSet
	err = gob.NewDecoder(f).Decode(&raw)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, ms := range raw {
		for _, m := range uniModels(ms) {
			if m.Grid != nil {
				t.Fatalf("%s: the fixture carries a grid; it must hold GRID OFF models", ms.Key())
			}
		}
	}

	sales := datagen.StoreSales(&datagen.StoreSalesOptions{Rows: 3000, Stores: 2, Seed: 6})
	loaded := New(nil)
	if err := loaded.RegisterTable(sales); err != nil {
		t.Fatal(err)
	}
	if err := loaded.LoadModels(gridOffCatalog); err != nil {
		t.Fatal(err)
	}
	trained := New(nil)
	if err := trained.RegisterTable(sales.Clone()); err != nil {
		t.Fatal(err)
	}
	models := loaded.Models()
	if len(models) != 2 {
		t.Fatalf("loaded %d models, want 2", len(models))
	}
	for _, mi := range models {
		if mi.Spec == nil || !mi.Tracked {
			t.Fatalf("%s: want a spec, tracked", mi.Key)
		}
		if _, err := trained.CreateModel(context.Background(), mi.Spec); err != nil {
			t.Fatal(err)
		}
		got, want := uniModels(loaded.catalog.Get(mi.Key)), uniModels(trained.catalog.Get(mi.Key))
		if len(got) == 0 || len(got) != len(want) {
			t.Fatalf("%s: loaded %d models, trained %d", mi.Key, len(got), len(want))
		}
		for i := range got {
			if !got[i].HasGrid() || !bytes.Equal(gobBytes(t, got[i].Grid), gobBytes(t, want[i].Grid)) {
				t.Fatalf("%s model %d: the grid rebuilt at load is not the one training builds", mi.Key, i)
			}
		}
	}

	for _, sql := range []string{
		"SELECT AVG(ss_sales_price), COUNT(*) FROM store_sales WHERE ss_sold_date_sk BETWEEN 200 AND 900",
		"SELECT PERCENTILE(ss_sold_date_sk, 0.4) FROM store_sales WHERE ss_sold_date_sk BETWEEN 100 AND 1500",
		"SELECT ss_store_sk, SUM(ss_net_profit) FROM store_sales WHERE ss_list_price BETWEEN 20 AND 80 GROUP BY ss_store_sk",
	} {
		plan, err := loaded.Explain(sql)
		if err != nil {
			t.Fatal(err)
		}
		// GroupMerge renders no kernel tag; the counters below cover it.
		if strings.Contains(plan.Tree, "kernel=") != strings.Contains(plan.Tree, "kernel=grid") {
			t.Fatalf("%s: plan does not serve from the grid:\n%s", sql, plan.Tree)
		}
		before := loaded.EvalKernelStats()
		got, err := loaded.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		if after := loaded.EvalKernelStats(); after.GridHits == before.GridHits || after.GridFallbacks != before.GridFallbacks {
			t.Fatalf("%s moved the kernel counters %+v → %+v, want grid hits only", sql, before, after)
		}
		want, err := trained.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		if got.Source != "model" || len(got.Aggregates) != len(want.Aggregates) {
			t.Fatalf("%s: loaded %+v, trained %+v", sql, got, want)
		}
		for i, a := range got.Aggregates {
			w := want.Aggregates[i]
			if a.Value != w.Value || a.PredRelErr != w.PredRelErr || len(a.Groups) != len(w.Groups) {
				t.Fatalf("%s: loaded %+v, trained %+v", sql, a, w)
			}
			for j, g := range a.Groups {
				if g != w.Groups[j] {
					t.Fatalf("%s group %d: loaded %+v, trained %+v", sql, g.Group, g, w.Groups[j])
				}
			}
		}
	}
}
