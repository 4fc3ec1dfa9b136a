package dbest

import (
	"bytes"
	"cmp"
	"context"
	"encoding/gob"
	"slices"
	"testing"

	"dbest/internal/core"
	"dbest/internal/datagen"
)

// TestCreateModelDeterministic holds "same seed ⇒ same model" for every kind
// of spec: each is executed on fresh engines training sequentially, with two
// workers and with four — the grid's knot refinement and its quadrature pass
// fan out under Workers, as do groups and shards — and everything the catalog
// then holds must be byte-identical. CI also runs it under -cpu 1,2,4.
func TestCreateModelDeterministic(t *testing.T) {
	sales := datagen.StoreSales(&datagen.StoreSalesOptions{Rows: 12000, Stores: 6, Seed: 3})
	stores := datagen.Store(6, 3)
	join := func(num, denom uint64) *JoinSpec {
		return &JoinSpec{Table: "store", LeftKey: "ss_store_sk", RightKey: "s_store_sk",
			SampleNum: num, SampleDenom: denom}
	}
	for _, spec := range []ModelSpec{
		{Name: "plain", XCols: []string{"ss_sold_date_sk"}, YCol: "ss_sales_price"},
		{Name: "grouped", XCols: []string{"ss_list_price"}, YCol: "ss_net_profit", GroupBy: "ss_store_sk"},
		{Name: "nominal", XCols: []string{"ss_list_price"}, YCol: "ss_sales_price", NominalBy: "ss_channel"},
		{Name: "sharded", XCols: []string{"ss_wholesale_cost"}, YCol: "ss_quantity", Shards: 4},
		{Name: "multivariate", XCols: []string{"ss_sold_date_sk", "ss_wholesale_cost"}, YCol: "ss_sales_price"},
		{Name: "join", XCols: []string{"s_number_of_employees"}, YCol: "ss_net_profit", Join: join(0, 0)},
		{Name: "sampled join", XCols: []string{"s_number_of_employees"}, YCol: "ss_net_profit", Join: join(1, 2)},
	} {
		spec.Table, spec.SampleSize, spec.Seed = "store_sales", 600, 7
		t.Run(spec.Name, func(t *testing.T) {
			var want []byte
			for _, workers := range []int{1, 2, 4} {
				eng := New(nil)
				for _, tb := range []*Table{sales, stores} {
					if err := eng.RegisterTable(tb); err != nil {
						t.Fatal(err)
					}
				}
				spec.Workers = workers
				if _, err := eng.CreateModel(context.Background(), &spec); err != nil {
					t.Fatal(err)
				}
				var got bytes.Buffer
				eng.catalog.Scan(func(ms *core.ModelSet) bool {
					encodeCanonical(t, &got, ms)
					return true
				})
				if want == nil {
					want = got.Bytes()
				} else if !bytes.Equal(got.Bytes(), want) {
					t.Fatalf("Workers=%d trained different models from the same spec and seed", workers)
				}
			}
		})
	}
}

// encodeCanonical gob-encodes a model set with everything that may differ
// between two identical trainings taken out: the wall-clock Stats, the spec
// blob (it records Workers), and map iteration order — gob writes a map in
// the order it iterates, so the map-valued fields go entry by entry in key
// order.
func encodeCanonical(t *testing.T, buf *bytes.Buffer, ms *core.ModelSet) {
	t.Helper()
	enc := gob.NewEncoder(buf)
	put := func(v any) {
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
	}
	c := *ms
	c.Stats, c.Spec = core.TrainStats{}, nil
	putSorted(put, c.Groups)
	putSorted(put, c.GroupRows)
	putSorted(put, c.Raw)
	putSorted(put, c.Nominal)
	putSorted(put, c.NominalRows)
	putSorted(put, c.NominalRaw)
	c.Groups, c.GroupRows, c.Raw = nil, nil, nil
	c.Nominal, c.NominalRows, c.NominalRaw = nil, nil, nil
	put(&c)
}

func putSorted[K cmp.Ordered, V any](put func(any), m map[K]V) {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		put(k)
		put(m[k])
	}
}
