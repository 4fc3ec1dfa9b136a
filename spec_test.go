package dbest_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"dbest"
	"dbest/internal/datagen"
)

func TestModelSpecValidate(t *testing.T) {
	valid := func() *dbest.ModelSpec {
		return &dbest.ModelSpec{Table: "t", XCols: []string{"x"}, YCol: "y"}
	}
	if err := valid().Validate(); err != nil {
		t.Fatalf("minimal spec: %v", err)
	}
	cases := []struct {
		name    string
		mutate  func(*dbest.ModelSpec)
		wantErr string
	}{
		{"no table", func(s *dbest.ModelSpec) { s.Table = "" }, "requires a table"},
		{"no xcols", func(s *dbest.ModelSpec) { s.XCols = nil }, "at least one x column"},
		{"empty xcol", func(s *dbest.ModelSpec) { s.XCols = []string{""} }, "empty x column"},
		{"dup xcol", func(s *dbest.ModelSpec) { s.XCols = []string{"x", "x"} }, "repeats x column"},
		{"no ycol", func(s *dbest.ModelSpec) { s.YCol = "" }, "requires a y column"},
		{"negative shards", func(s *dbest.ModelSpec) { s.Shards = -1 }, "negative"},
		{"sharded multivariate", func(s *dbest.ModelSpec) { s.Shards = 4; s.XCols = []string{"a", "b"} },
			"exactly one x column"},
		{"sharded groupby", func(s *dbest.ModelSpec) { s.Shards = 4; s.GroupBy = "g" },
			"does not support GROUP BY"},
		{"sharded nominal", func(s *dbest.ModelSpec) { s.Shards = 4; s.NominalBy = "c" },
			"does not support NOMINAL BY"},
		{"sharded join", func(s *dbest.ModelSpec) {
			s.Shards = 4
			s.Join = &dbest.JoinSpec{Table: "u", LeftKey: "k", RightKey: "k"}
		}, "does not support joins"},
		{"nominal multivariate", func(s *dbest.ModelSpec) { s.NominalBy = "c"; s.XCols = []string{"a", "b"} },
			"exactly one x column"},
		{"nominal groupby", func(s *dbest.ModelSpec) { s.NominalBy = "c"; s.GroupBy = "g" },
			"does not support GROUP BY"},
		{"join missing keys", func(s *dbest.ModelSpec) { s.Join = &dbest.JoinSpec{Table: "u"} },
			"left_key and right_key"},
		{"join zero ratio", func(s *dbest.ModelSpec) {
			s.Join = &dbest.JoinSpec{Table: "u", LeftKey: "k", RightKey: "k", Sampled: true}
		}, "nonzero numerator and denominator"},
		{"join half ratio", func(s *dbest.ModelSpec) {
			s.Join = &dbest.JoinSpec{Table: "u", LeftKey: "k", RightKey: "k", SampleNum: 1}
		}, "nonzero numerator and denominator"},
		{"join ratio > 1", func(s *dbest.ModelSpec) {
			s.Join = &dbest.JoinSpec{Table: "u", LeftKey: "k", RightKey: "k", SampleNum: 5, SampleDenom: 4}
		}, "exceeds 1"},
		{"negative sample", func(s *dbest.ModelSpec) { s.SampleSize = -1 }, "negative"},
		{"negative scale", func(s *dbest.ModelSpec) { s.Scale = -2 }, "negative"},
		{"bad regressor", func(s *dbest.ModelSpec) { s.Regressor = "forest" }, "unknown regressor"},
	}
	for _, c := range cases {
		s := valid()
		c.mutate(s)
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: want error containing %q, got nil", c.name, c.wantErr)
			continue
		}
		if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error %q does not contain %q", c.name, err, c.wantErr)
		}
	}
	// CreateModel must reject nil and invalid specs up front.
	eng := dbest.New(nil)
	if _, err := eng.CreateModel(context.Background(), nil); err == nil {
		t.Fatal("nil spec: want error")
	}
	if _, err := eng.CreateModel(context.Background(), &dbest.ModelSpec{}); err == nil {
		t.Fatal("empty spec: want error")
	}
}

func TestModelsListing(t *testing.T) {
	tb := datagen.StoreSales(&datagen.StoreSalesOptions{Rows: 6000, Seed: 2})
	eng := dbest.New(nil)
	if err := eng.RegisterTable(tb); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.CreateModel(context.Background(), &dbest.ModelSpec{
		Name:  "by_date",
		Table: "store_sales", XCols: []string{"ss_sold_date_sk"}, YCol: "ss_sales_price",
		SampleSize: 1000, Seed: 1, Shards: 4,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.CreateModel(context.Background(), &dbest.ModelSpec{
		Table: "store_sales", XCols: []string{"ss_quantity"}, YCol: "ss_sales_price",
		SampleSize: 500, Seed: 1,
	}); err != nil {
		t.Fatal(err)
	}

	models := eng.Models()
	if len(models) != 2 {
		t.Fatalf("Models() = %d entries, want 2: %+v", len(models), models)
	}
	for _, m := range models {
		if strings.Contains(m.Key, "@s") {
			t.Fatalf("Models() leaked a raw shard-member key: %q", m.Key)
		}
		if m.Spec == nil {
			t.Fatalf("model %s has no spec", m.Key)
		}
		if m.Bytes <= 0 || m.NumModels <= 0 {
			t.Fatalf("model %s reports empty footprint: %+v", m.Key, m)
		}
		if !m.Tracked {
			t.Fatalf("model %s should be staleness-tracked", m.Key)
		}
	}
	// The sharded ensemble is one logical entry with its shard count.
	var sharded *dbest.ModelInfo
	for i := range models {
		if models[i].Name == "by_date" {
			sharded = &models[i]
		}
	}
	if sharded == nil || sharded.Shards != 4 || sharded.NumModels != 4 {
		t.Fatalf("sharded ensemble listing = %+v, want one entry with 4 shards", sharded)
	}
	// Raw ModelKeys still exposes the member keys (5 sets total).
	if got := len(eng.ModelKeys()); got != 5 {
		t.Fatalf("ModelKeys() = %d keys, want 5 (4 members + 1 plain)", got)
	}
}

func TestDropModel(t *testing.T) {
	tb := datagen.StoreSales(&datagen.StoreSalesOptions{Rows: 6000, Seed: 3})
	eng := dbest.New(nil)
	if err := eng.RegisterTable(tb); err != nil {
		t.Fatal(err)
	}
	mk := func(name, xcol string, shards int) {
		t.Helper()
		if _, err := eng.CreateModel(context.Background(), &dbest.ModelSpec{
			Name: name, Table: "store_sales", XCols: []string{xcol}, YCol: "ss_sales_price",
			SampleSize: 500, Seed: 1, Shards: shards,
		}); err != nil {
			t.Fatal(err)
		}
	}
	mk("dated", "ss_sold_date_sk", 4)
	mk("qty", "ss_quantity", 0)

	// Unknown name errors.
	if _, err := eng.DropModel("ghost"); err == nil {
		t.Fatal("dropping an unknown model should fail")
	}
	if _, err := eng.DropModel(""); err == nil {
		t.Fatal("dropping an empty name should fail")
	}

	// Dropping by name removes the whole ensemble and its ledger entries.
	removed, err := eng.DropModel("dated")
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 4 {
		t.Fatalf("DropModel removed %v, want the 4 ensemble members", removed)
	}
	for _, st := range eng.ModelStaleness() {
		if strings.Contains(st.Key, "ss_sold_date_sk") {
			t.Fatalf("ledger still tracks dropped model %s", st.Key)
		}
	}
	if len(eng.Models()) != 1 {
		t.Fatalf("Models() after drop = %+v, want just qty", eng.Models())
	}

	// Dropping by exact catalog key works too.
	key := eng.ModelKeys()[0]
	if removed, err = eng.DropModel(key); err != nil || len(removed) != 1 {
		t.Fatalf("DropModel(%q) = %v, %v", key, removed, err)
	}
	if len(eng.ModelKeys()) != 0 {
		t.Fatalf("catalog not empty: %v", eng.ModelKeys())
	}

	// Queries over the dropped models fall back to the exact path.
	res, err := eng.Query("SELECT AVG(ss_sales_price) FROM store_sales WHERE ss_quantity BETWEEN 0 AND 50")
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != "exact" {
		t.Fatalf("source after drop = %q, want exact", res.Source)
	}
}

func TestExecStatements(t *testing.T) {
	tb := datagen.StoreSales(&datagen.StoreSalesOptions{Rows: 6000, Seed: 4})
	eng := dbest.New(nil)
	if err := eng.RegisterTable(tb); err != nil {
		t.Fatal(err)
	}

	res, err := eng.Exec("CREATE MODEL sales_by_date ON store_sales(ss_sold_date_sk; ss_sales_price) SHARDS 4 SAMPLE 1000 SEED 1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != "create-model" || res.Train == nil || res.Train.Shards != 4 {
		t.Fatalf("CREATE MODEL result = %+v", res)
	}
	if res.Spec == nil || res.Spec.Name != "sales_by_date" || res.Spec.Shards != 4 || res.Spec.SampleSize != 1000 {
		t.Fatalf("CREATE MODEL spec = %+v", res.Spec)
	}

	// The created ensemble answers model-path queries.
	res, err = eng.Exec("SELECT COUNT(*) FROM store_sales WHERE ss_sold_date_sk BETWEEN 0 AND 2000")
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != "select" || res.Query == nil || res.Query.Source != "model" {
		t.Fatalf("SELECT result = %+v", res)
	}
	if re := relErr(res.Query.Aggregates[0].Value, 6000); re > 0.1 {
		t.Fatalf("COUNT via CREATE MODEL ensemble: rel err %v", re)
	}

	res, err = eng.Exec("SHOW MODELS")
	if err != nil || res.Kind != "show-models" || len(res.Models) != 1 {
		t.Fatalf("SHOW MODELS = %+v, %v", res, err)
	}
	if res.Models[0].Name != "sales_by_date" {
		t.Fatalf("SHOW MODELS entry = %+v", res.Models[0])
	}

	res, err = eng.Exec("DROP MODEL sales_by_date")
	if err != nil || res.Kind != "drop-model" || len(res.Dropped) != 4 {
		t.Fatalf("DROP MODEL = %+v, %v", res, err)
	}

	if _, err := eng.Exec("CREATE MODEL broken ON store_sales(ss_sold_date_sk; ss_sales_price) SHARDS 2 GROUP BY g"); err == nil {
		t.Fatal("invalid spec through Exec should fail")
	}
	if _, err := eng.Exec("NOT A STATEMENT"); err == nil {
		t.Fatal("garbage statement should fail")
	}
}

// ExecContext must honor cancellation for CREATE MODEL like TrainContext
// did for Train.
func TestExecCreateModelCancellation(t *testing.T) {
	tb := datagen.StoreSales(&datagen.StoreSalesOptions{Rows: 20000, Seed: 5})
	eng := dbest.New(nil)
	if err := eng.RegisterTable(tb); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.ExecContext(ctx, "CREATE MODEL m ON store_sales(ss_sold_date_sk; ss_sales_price)"); err == nil {
		t.Fatal("canceled CREATE MODEL should fail")
	}
	if len(eng.ModelKeys()) != 0 {
		t.Fatal("canceled CREATE MODEL must not touch the catalog")
	}
}

// The spec round-trips through SaveModels/LoadModels: the reloaded engine
// knows each model's definition and tracks its staleness.
func TestSpecPersistRoundTrip(t *testing.T) {
	tb := datagen.StoreSales(&datagen.StoreSalesOptions{Rows: 6000, Seed: 6})
	eng := dbest.New(nil)
	if err := eng.RegisterTable(tb); err != nil {
		t.Fatal(err)
	}
	spec := &dbest.ModelSpec{
		Name:  "persisted",
		Table: "store_sales", XCols: []string{"ss_sold_date_sk"}, YCol: "ss_sales_price",
		SampleSize: 1000, Seed: 7, Shards: 4,
	}
	if _, err := eng.CreateModel(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/models.gob"
	if err := eng.SaveModels(path); err != nil {
		t.Fatal(err)
	}

	eng2 := dbest.New(nil)
	if err := eng2.RegisterTable(datagen.StoreSales(&datagen.StoreSalesOptions{Rows: 6000, Seed: 6})); err != nil {
		t.Fatal(err)
	}
	if err := eng2.LoadModels(path); err != nil {
		t.Fatal(err)
	}
	models := eng2.Models()
	if len(models) != 1 || models[0].Spec == nil {
		t.Fatalf("reloaded Models() = %+v, want one entry with a spec", models)
	}
	got := models[0].Spec
	if got.Name != "persisted" || got.Shards != 4 || got.SampleSize != 1000 || got.Seed != 7 {
		t.Fatalf("reloaded spec = %+v, want the original definition", got)
	}
	// The reloaded ensemble is staleness-tracked per shard — and FRESH:
	// with the table unchanged since the save, no shard may score stale
	// (a bogus score here would make a refresher rebuild every loaded
	// ensemble at startup).
	sts := eng2.ModelStaleness()
	if len(sts) != 4 {
		t.Fatalf("reloaded staleness entries = %d, want 4 (one per shard)", len(sts))
	}
	for _, st := range sts {
		if st.Shards != 4 {
			t.Fatalf("reloaded shard entry = %+v, want shard routing metadata", st)
		}
		if st.Score != 0 || st.IngestedRows != 0 {
			t.Fatalf("loaded shard scored stale with no ingestion: %+v", st)
		}
	}
	// And DROP MODEL by name works on the reloaded catalog.
	if removed, err := eng2.DropModel("persisted"); err != nil || len(removed) != 4 {
		t.Fatalf("DropModel on reloaded catalog = %v, %v", removed, err)
	}

	// A catalog written before ModelSpec was the only model definition still
	// loads, lists its specs, is tracked, serves and refreshes.
	// testdata/catalog/pr13.gob was saved by the PR 13 commit: a plain, a
	// 2-shard, a join and an HLL-sketch spec over the tables registered here.
	old := dbest.New(nil)
	defer old.StopRefresher()
	oldSales := datagen.StoreSales(&datagen.StoreSalesOptions{Rows: 3000, Stores: 4, Seed: 6})
	for _, tb := range []*dbest.Table{oldSales, datagen.Store(4, 6)} {
		if err := old.RegisterTable(tb); err != nil {
			t.Fatal(err)
		}
	}
	if err := old.LoadModels("testdata/catalog/pr13.gob"); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range old.Models() {
		if m.Spec == nil || !m.Tracked || m.Staleness != 0 {
			t.Fatalf("parent-written model %+v: want a spec, tracked and fresh", m)
		}
		names = append(names, m.Name)
	}
	if got := strings.Join(names, ","); got != "joined,plain,dates,sharded" {
		t.Fatalf("parent-written catalog lists %q", got)
	}
	res, err := old.Query("SELECT AVG(ss_sales_price) FROM store_sales WHERE ss_sold_date_sk BETWEEN 200 AND 900")
	if err != nil || res.Source != "model" {
		t.Fatalf("query over the parent-written catalog = %+v, %v", res, err)
	}
	// Replacing the table stales every entry; each retrain re-executes a spec
	// decoded from the file.
	if err := old.RegisterTable(oldSales.Clone()); err != nil {
		t.Fatal(err)
	}
	if err := old.StartRefresher(&dbest.RefreshOptions{Interval: 5 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	entries := len(old.ModelStaleness())
	for deadline := time.Now().Add(30 * time.Second); old.RefreshStats().Refreshes < uint64(entries); {
		if time.Now().After(deadline) {
			t.Fatalf("refreshed %d of %d parent-written entries: %+v",
				old.RefreshStats().Refreshes, entries, old.ModelStaleness())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if f := old.RefreshStats().Failures; f != 0 {
		t.Fatalf("%d retrains of parent-written specs failed: %+v", f, old.ModelStaleness())
	}
}

// DropTable now force-stales dependent models (they are unrefreshable
// without base data), and DropTableCascade drops them entirely.
func TestDropTableStalenessAndCascade(t *testing.T) {
	eng, _ := newSalesEngine(t, 8000)
	if s := eng.ModelStaleness()[0]; s.Score != 0 {
		t.Fatalf("fresh model staleness = %g, want 0", s.Score)
	}
	eng.DropTable("store_sales")
	if s := eng.ModelStaleness()[0]; s.Score != 1 {
		t.Fatalf("staleness after DropTable = %g, want 1 (force-staled)", s.Score)
	}
	// Models still answer (DBEst's defining property).
	res, err := eng.Query("SELECT AVG(ss_sales_price) FROM store_sales WHERE ss_sold_date_sk BETWEEN 200 AND 900")
	if err != nil || res.Source != "model" {
		t.Fatalf("model query after DropTable = %+v, %v", res, err)
	}

	// Cascade: table and models both go.
	eng2, _ := newSalesEngine(t, 8000)
	removed := eng2.DropTableCascade("store_sales")
	if len(removed) != 1 {
		t.Fatalf("DropTableCascade removed %v, want the one model", removed)
	}
	if len(eng2.ModelKeys()) != 0 || len(eng2.ModelStaleness()) != 0 {
		t.Fatalf("cascade left state behind: keys=%v staleness=%v",
			eng2.ModelKeys(), eng2.ModelStaleness())
	}
	if _, err := eng2.Query("SELECT AVG(ss_sales_price) FROM store_sales WHERE ss_sold_date_sk BETWEEN 200 AND 900"); err == nil {
		t.Fatal("nothing should answer after a cascade drop")
	}
}

// The full production lifecycle that closures could never support:
// CreateModel → SaveModels → fresh engine LoadModels → Append past the
// threshold → the background refresher retrains the LOADED model from its
// spec, bumping the generation and folding the new rows into answers.
func TestLoadedCatalogAutoRefresh(t *testing.T) {
	const base = 4000
	eng := dbest.New(nil)
	if err := eng.RegisterTable(streamTable(base, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.CreateModel(context.Background(), &dbest.ModelSpec{
		Name:  "stream_rate",
		Table: "stream", XCols: []string{"x"}, YCol: "y",
		SampleSize: 1000, Seed: 1,
	}); err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/models.gob"
	if err := eng.SaveModels(path); err != nil {
		t.Fatal(err)
	}

	// Fresh engine: same data registered, models loaded from disk.
	eng2 := dbest.New(nil)
	defer eng2.StopRefresher()
	if err := eng2.RegisterTable(streamTable(base, 1)); err != nil {
		t.Fatal(err)
	}
	if err := eng2.LoadModels(path); err != nil {
		t.Fatal(err)
	}
	if n := len(eng2.ModelStaleness()); n != 1 {
		t.Fatalf("loaded model not staleness-tracked: %d entries", n)
	}

	countSQL := "SELECT COUNT(*) FROM stream WHERE x BETWEEN 0 AND 1000"
	query := func() float64 {
		t.Helper()
		res, err := eng2.Query(countSQL)
		if err != nil {
			t.Fatal(err)
		}
		if res.Source != "model" {
			t.Fatalf("source = %q, want model", res.Source)
		}
		return res.Aggregates[0].Value
	}
	if before := query(); relErr(before, base) > 0.15 {
		t.Fatalf("pre-ingest loaded-model COUNT = %g, want ~%d", before, base)
	}
	wipesBefore := eng2.PlanCacheStats().GenerationWipes

	if err := eng2.StartRefresher(&dbest.RefreshOptions{
		Interval:  5 * time.Millisecond,
		Threshold: 0.5,
	}); err != nil {
		t.Fatal(err)
	}
	// Ingest a full table's worth past the threshold.
	if _, err := eng2.Append("stream", streamRows(base, 9)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for eng2.RefreshStats().Refreshes == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("refresher never retrained the loaded model; staleness: %+v", eng2.ModelStaleness())
		}
		time.Sleep(2 * time.Millisecond)
	}

	// The retrained model sees the doubled table, and cached plans were
	// invalidated by the generation bump.
	if after := query(); relErr(after, 2*base) > 0.15 {
		t.Fatalf("post-refresh loaded-model COUNT = %g, want ~%d", after, 2*base)
	}
	if wipes := eng2.PlanCacheStats().GenerationWipes; wipes <= wipesBefore {
		t.Fatalf("GenerationWipes = %d, want > %d: refresh of a loaded model must invalidate plans", wipes, wipesBefore)
	}
	st := eng2.ModelStaleness()[0]
	if st.Refreshes == 0 || st.BaseRows != 2*base || st.LastError != "" {
		t.Fatalf("loaded-model ledger after refresh = %+v", st)
	}
	// The refreshed model still carries its spec (a re-save round-trips).
	if m := eng2.Models(); len(m) != 1 || m[0].Spec == nil || m[0].Name != "stream_rate" {
		t.Fatalf("spec lost across refresh: %+v", m)
	}
}
