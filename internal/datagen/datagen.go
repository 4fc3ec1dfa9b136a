// Package datagen generates the synthetic datasets the evaluation needs.
// The paper evaluates on TPC-DS (scale factors 40–1000), the UCI Combined
// Cycle Power Plant (CCPP) set, the UCI Beijing PM2.5 set, and a synthetic
// Zipf-joined pair of tables (Appendix C). None of those are shippable in an
// offline reproduction, so this package builds statistically-shaped
// equivalents: the same columns, the same kinds of inter-column
// relationships (correlated prices/costs, nonlinear sensor responses,
// Zipf-skewed join keys), so the model-training and query-evaluation code
// paths are exercised identically. See README, "Reproducing the paper's
// evaluation", for the substitution rationale.
package datagen

import (
	"math"
	"math/rand"

	"dbest/internal/table"
)

// StoreSalesOptions sizes the TPC-DS-like fact/dimension pair.
type StoreSalesOptions struct {
	Rows   int   // fact-table rows; default 1e6
	Stores int   // distinct ss_store_sk values; default 57 (paper §4.6)
	Days   int   // distinct ss_sold_date_sk values; default 1823 (5 years)
	Seed   int64 // RNG seed
}

func (o *StoreSalesOptions) withDefaults() StoreSalesOptions {
	out := StoreSalesOptions{Rows: 1_000_000, Stores: 57, Days: 1823}
	if o == nil {
		return out
	}
	if o.Rows > 0 {
		out.Rows = o.Rows
	}
	if o.Stores > 0 {
		out.Stores = o.Stores
	}
	if o.Days > 0 {
		out.Days = o.Days
	}
	out.Seed = o.Seed
	return out
}

// StoreSales generates a TPC-DS-shaped store_sales fact table with the
// column pairs the paper queries:
//
//	ss_sold_date_sk   int   — ordinal date surrogate key
//	ss_store_sk       int   — store key (GROUP BY attribute, 57 values)
//	ss_quantity       float — 1..100
//	ss_wholesale_cost float — lognormal-ish cost
//	ss_list_price     float — cost × markup (correlated with cost)
//	ss_sales_price    float — list price × discount factor
//	ss_ext_discount_amt float — extended discount
//	ss_net_profit     float — sales − cost ± noise (can be negative)
//
// Stores have different sales-volume weights (Zipf-ish) so GROUP BY groups
// are realistically non-uniform.
func StoreSales(opts *StoreSalesOptions) *table.Table {
	o := opts.withDefaults()
	rng := rand.New(rand.NewSource(o.Seed + 11))

	// Per-store volume weights and per-store price level multipliers give
	// each group its own distribution — what per-group models must learn.
	weights := make([]float64, o.Stores)
	level := make([]float64, o.Stores)
	var wsum float64
	for s := range weights {
		weights[s] = 1 / math.Pow(float64(s+1), 0.6)
		wsum += weights[s]
		level[s] = 0.8 + 0.4*rng.Float64()
	}
	cum := make([]float64, o.Stores)
	acc := 0.0
	for s := range weights {
		acc += weights[s] / wsum
		cum[s] = acc
	}
	pickStore := func(u float64) int64 {
		lo, hi := 0, o.Stores-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return int64(lo)
	}

	n := o.Rows
	date := make([]int64, n)
	store := make([]int64, n)
	qty := make([]float64, n)
	cost := make([]float64, n)
	list := make([]float64, n)
	sales := make([]float64, n)
	disc := make([]float64, n)
	profit := make([]float64, n)
	channel := make([]string, n)
	// Sales channels are the nominal categorical attribute (§2.3): each
	// channel discounts differently, so per-channel models must differ.
	channels := []struct {
		name           string
		weight, discLo float64
		discHi         float64
	}{
		{"store", 0.62, 0.82, 1.00},
		{"web", 0.28, 0.70, 0.95},
		{"catalog", 0.10, 0.75, 0.90},
	}
	for i := 0; i < n; i++ {
		// Dates have a mild seasonal sinusoid in volume; use rejection-free
		// warping of a uniform draw.
		d := rng.Float64()
		d = d + 0.08*math.Sin(4*math.Pi*d)/(4*math.Pi)
		date[i] = int64(d * float64(o.Days))
		s := pickStore(rng.Float64())
		store[i] = s
		qty[i] = 1 + math.Floor(100*math.Pow(rng.Float64(), 1.6))
		// Bounded, mildly skewed cost (TPC-DS draws ss_wholesale_cost
		// roughly uniformly in [1, 100]); per-store price level shifts it.
		c := (1 + 99*math.Pow(rng.Float64(), 1.15)) * level[s]
		cost[i] = round2(c)
		// Markup varies slowly and smoothly with the cost level plus small
		// noise, keeping list price a tight, learnable, monotone function
		// of cost with a smooth density — the properties that make
		// [ss_list_price, ss_wholesale_cost] the paper's sensitivity pair.
		markup := 1.35 + 0.1*math.Sin(c/40) + 0.02*rng.NormFloat64()
		if markup < 1.05 {
			markup = 1.05
		}
		list[i] = round2(c * markup)
		u := rng.Float64()
		ch := channels[0]
		for _, cand := range channels {
			if u < cand.weight {
				ch = cand
				break
			}
			u -= cand.weight
		}
		channel[i] = ch.name
		discount := ch.discLo + (ch.discHi-ch.discLo)*rng.Float64()
		sales[i] = round2(list[i] * discount)
		disc[i] = round2(list[i] * (1 - discount) * qty[i])
		profit[i] = round2((sales[i]-cost[i])*qty[i] + rng.NormFloat64()*3)
	}

	tb := table.New("store_sales")
	tb.AddIntColumn("ss_sold_date_sk", date)
	tb.AddIntColumn("ss_store_sk", store)
	tb.AddFloatColumn("ss_quantity", qty)
	tb.AddFloatColumn("ss_wholesale_cost", cost)
	tb.AddFloatColumn("ss_list_price", list)
	tb.AddFloatColumn("ss_sales_price", sales)
	tb.AddFloatColumn("ss_ext_discount_amt", disc)
	tb.AddFloatColumn("ss_net_profit", profit)
	tb.AddStringColumn("ss_channel", channel)
	return tb
}

// Store generates the TPC-DS-shaped store dimension table (one row per
// store) used by the join experiments (§4.8): s_store_sk joins
// ss_store_sk; s_number_of_employees is the dimension attribute the paper
// ranges over.
func Store(stores int, seed int64) *table.Table {
	if stores <= 0 {
		stores = 57
	}
	rng := rand.New(rand.NewSource(seed + 13))
	sk := make([]int64, stores)
	emp := make([]int64, stores)
	floor := make([]float64, stores)
	for i := 0; i < stores; i++ {
		sk[i] = int64(i)
		emp[i] = int64(200 + rng.Intn(100)) // TPC-DS range 200..300
		floor[i] = float64(5000000 + rng.Intn(5000000))
	}
	tb := table.New("store")
	tb.AddIntColumn("s_store_sk", sk)
	tb.AddIntColumn("s_number_of_employees", emp)
	tb.AddFloatColumn("s_floor_space", floor)
	return tb
}

// CCPP generates the Combined Cycle Power Plant dataset shape (Tüfekci
// 2014): Temperature (T), Exhaust Vacuum (V), Ambient Pressure (AP),
// Relative Humidity (RH) and the net energy output (EP ≈ 420–495 MW) which
// responds strongly and negatively to T — the relationship the paper's
// [T, EP] regression models learn. rows defaults to 9568 (the real set) and
// may be scaled up like the paper does (§4.1.2).
func CCPP(rows int, seed int64) *table.Table {
	if rows <= 0 {
		rows = 9568
	}
	rng := rand.New(rand.NewSource(seed + 17))
	T := make([]float64, rows)
	V := make([]float64, rows)
	AP := make([]float64, rows)
	RH := make([]float64, rows)
	EP := make([]float64, rows)
	for i := 0; i < rows; i++ {
		t := 1.81 + rng.Float64()*35.3 // 1.81..37.11 °C
		v := 25.36 + (t-1.81)/35.3*40 + rng.NormFloat64()*5
		v = clamp(v, 25.36, 81.56)
		ap := 992.89 + rng.NormFloat64()*5.94
		ap = clamp(ap, 992.89-3*5.94, 992.89+3*5.94)
		rh := 73.3 - 0.5*(t-20) + rng.NormFloat64()*10
		rh = clamp(rh, 25.56, 100.16)
		// EP: dominated by a negative linear response to T with mild
		// curvature and small contributions from V, AP, RH (mirrors the
		// published regression studies on this dataset).
		ep := 497.0 - 1.75*t - 0.009*t*t - 0.18*(v-54) + 0.06*(ap-1013) - 0.04*(rh-73) + rng.NormFloat64()*3.5
		T[i], V[i], AP[i], RH[i], EP[i] = round2(t), round2(v), round2(ap), round2(rh), round2(ep)
	}
	tb := table.New("ccpp")
	tb.AddFloatColumn("T", T)
	tb.AddFloatColumn("V", V)
	tb.AddFloatColumn("AP", AP)
	tb.AddFloatColumn("RH", RH)
	tb.AddFloatColumn("EP", EP)
	return tb
}

// Beijing generates the Beijing PM2.5 dataset shape (Liang et al. 2015):
// Dew Point (DEWP), Pressure (PRES), Temperature (TEMP), cumulated wind
// speed (IWS), and the PM2.5 level. PM2.5 is nonlinear and heteroscedastic
// in the predictors: high with high humidity/low wind, low with strong
// northerly wind — the qualitative structure the paper's models must learn.
// rows defaults to 43824 (the real set size).
func Beijing(rows int, seed int64) *table.Table {
	if rows <= 0 {
		rows = 43824
	}
	rng := rand.New(rand.NewSource(seed + 19))
	dewp := make([]float64, rows)
	pres := make([]float64, rows)
	temp := make([]float64, rows)
	iws := make([]float64, rows)
	pm := make([]float64, rows)
	for i := 0; i < rows; i++ {
		// Seasonal driver in [0, 2π).
		season := 2 * math.Pi * float64(i%8760) / 8760
		t := 12 - 14*math.Cos(season) + rng.NormFloat64()*4
		dp := t - 5 - rng.Float64()*12
		p := 1016 + 10*math.Cos(season) + rng.NormFloat64()*4
		w := math.Exp(rng.NormFloat64()*1.1 + 1.2) // lognormal wind, median ≈ 3.3
		humidityProxy := math.Max(0, 12-(t-dp))    // small dew-point gap → humid
		base := 18 + 14*humidityProxy + 90/(1+w/8) - 1.3*t
		level := math.Max(2, base*math.Exp(rng.NormFloat64()*0.55))
		dewp[i] = round2(dp)
		pres[i] = round2(p)
		temp[i] = round2(t)
		iws[i] = round2(w)
		pm[i] = round2(level)
	}
	tb := table.New("beijing")
	tb.AddFloatColumn("DEWP", dewp)
	tb.AddFloatColumn("PRES", pres)
	tb.AddFloatColumn("TEMP", temp)
	tb.AddFloatColumn("IWS", iws)
	tb.AddFloatColumn("PM25", pm)
	return tb
}

// ScaleUp resamples tb to rows rows with per-column multiplicative jitter,
// the way the paper scales the 9 568-row CCPP set to billions: rows are
// drawn with replacement and numeric values are perturbed by a small
// relative noise so the scaled table is not a pure replication.
func ScaleUp(tb *table.Table, rows int, jitter float64, seed int64) *table.Table {
	rng := rand.New(rand.NewSource(seed + 23))
	n := tb.NumRows()
	out := table.New(tb.Name)
	idx := make([]int, rows)
	for i := range idx {
		idx[i] = rng.Intn(n)
	}
	for _, c := range tb.Columns {
		nc := out.AddColumn(c.Name, c.Type)
		switch c.Type {
		case table.Float64:
			nc.Floats = make([]float64, rows)
			for j, i := range idx {
				nc.Floats[j] = c.Floats[i] * (1 + jitter*(2*rng.Float64()-1))
			}
		case table.Int64:
			nc.Ints = make([]int64, rows)
			for j, i := range idx {
				nc.Ints[j] = c.Ints[i]
			}
		case table.String:
			nc.Strings = make([]string, rows)
			for j, i := range idx {
				nc.Strings[j] = c.Strings[i]
			}
		}
	}
	return out
}

// Zipf draws n samples from a Zipf distribution over ranks 1..max with
// parameter s ≥ 1 — the join-attribute distribution of Appendix C
// (p(k) = k^−s / ζ(s)).
func Zipf(n int, s float64, max uint64, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed + 29))
	z := rand.NewZipf(rng, s, 1, max-1)
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(z.Uint64()) + 1 // ranks 1..max
	}
	return out
}

// ZipfJoinPair builds the Appendix C tables A(x, y) and B(z, y): the join
// attribute y of B follows Zipf(s) over 1..maxKey (a heavily skewed region)
// for half the rows and Uniform(maxKey+1 .. 2·maxKey) (a non-skewed region)
// for the other half. A holds one row per key with measure x; B's measure z
// depends weakly on y plus noise.
func ZipfJoinPair(aRows, bRows int, s float64, maxKey uint64, seed int64) (a, b *table.Table) {
	rng := rand.New(rand.NewSource(seed + 31))

	a = table.New("A")
	ay := make([]int64, aRows)
	ax := make([]float64, aRows)
	for i := 0; i < aRows; i++ {
		ay[i] = int64(i%int(2*maxKey)) + 1
		ax[i] = round2(rng.Float64() * 100)
	}
	a.AddIntColumn("y", ay)
	a.AddFloatColumn("x", ax)

	b = table.New("B")
	by := make([]int64, bRows)
	bz := make([]float64, bRows)
	half := bRows / 2
	skewed := Zipf(half, s, maxKey, seed)
	copy(by, skewed)
	for i := half; i < bRows; i++ {
		by[i] = int64(maxKey) + 1 + rng.Int63n(int64(maxKey))
	}
	for i := 0; i < bRows; i++ {
		bz[i] = round2(50 + 0.02*float64(by[i]) + rng.NormFloat64()*8)
	}
	b.AddIntColumn("y", by)
	b.AddFloatColumn("z", bz)
	return a, b
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func round2(v float64) float64 { return math.Round(v*100) / 100 }
