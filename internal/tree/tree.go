// Package tree implements CART-style decision trees from scratch:
// least-squares regression trees (the weak learners inside the gradient
// boosters of internal/boost, replacing sklearn/XGBoost tree builders) and
// majority-vote classification trees (used by the ensemble regressor's
// learned model selector, paper §3 "Regression Model Selection").
//
// Splits are found with histogram binning (a fixed number of candidate
// thresholds per feature), the same strategy LightGBM popularized, which
// keeps training O(n · features · bins) per node.
package tree

import (
	"errors"
	"math"
	"sort"
)

// node is a tree node; leaves have feature == -1.
type node struct {
	Feature   int     // split feature index, -1 for leaf
	Threshold float64 // go left if x[Feature] <= Threshold
	Left      int32   // child indices into the node arena
	Right     int32
	Value     float64 // leaf prediction
}

// Regressor is a least-squares CART regression tree.
type Regressor struct {
	Nodes []node
}

// RegOptions controls regression-tree growth.
type RegOptions struct {
	MaxDepth    int // default 6
	MinLeaf     int // minimum samples per leaf; default 5
	Bins        int // histogram candidate thresholds per feature; default 64
	MinGain     float64
	Lambda      float64 // L2 regularization on leaf values (XGBoost-style); default 0
	LeafShrink  float64 // multiply leaf values (learning handled by booster; default 1)
	SecondOrder bool    // use hessian-weighted leaves (paper's "XGBoost" variant)
}

func (o *RegOptions) withDefaults() RegOptions {
	out := RegOptions{MaxDepth: 6, MinLeaf: 5, Bins: 64, LeafShrink: 1}
	if o == nil {
		return out
	}
	if o.MaxDepth > 0 {
		out.MaxDepth = o.MaxDepth
	}
	if o.MinLeaf > 0 {
		out.MinLeaf = o.MinLeaf
	}
	if o.Bins > 0 {
		out.Bins = o.Bins
	}
	if o.MinGain > 0 {
		out.MinGain = o.MinGain
	}
	out.Lambda = o.Lambda
	if o.LeafShrink > 0 {
		out.LeafShrink = o.LeafShrink
	}
	out.SecondOrder = o.SecondOrder
	return out
}

// FitRegressor fits a regression tree to features X (n rows × d columns,
// row-major [][]float64) against gradients g and hessians h. For plain
// least-squares fitting pass g = targets and h = nil (unit hessians).
func FitRegressor(X [][]float64, g, h []float64, opts *RegOptions) (*Regressor, error) {
	n := len(X)
	if n == 0 {
		return nil, errors.New("tree: empty training set")
	}
	if len(g) != n {
		return nil, errors.New("tree: X and g length mismatch")
	}
	if h != nil && len(h) != n {
		return nil, errors.New("tree: X and h length mismatch")
	}
	o := opts.withDefaults()
	t := &Regressor{}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	b := &builder{X: X, G: g, H: h, opts: o, tree: t}
	b.grow(idx, 0)
	return t, nil
}

type builder struct {
	X    [][]float64
	G    []float64
	H    []float64
	opts RegOptions
	tree *Regressor
}

func (b *builder) hess(i int) float64 {
	if b.H == nil {
		return 1
	}
	return b.H[i]
}

// leafValue computes the optimal leaf weight −Σg/(Σh+λ) (second-order) or
// the mean target (first-order; there g holds residuals/targets directly).
func (b *builder) leafValue(idx []int) float64 {
	var sg, sh float64
	for _, i := range idx {
		sg += b.G[i]
		sh += b.hess(i)
	}
	den := sh + b.opts.Lambda
	if den == 0 {
		return 0
	}
	if b.opts.SecondOrder {
		return -sg / den * b.opts.LeafShrink
	}
	return sg / den * b.opts.LeafShrink
}

// grow recursively grows the subtree over the rows idx and returns its index
// in the node arena.
func (b *builder) grow(idx []int, depth int) int32 {
	me := int32(len(b.tree.Nodes))
	b.tree.Nodes = append(b.tree.Nodes, node{Feature: -1})
	if depth >= b.opts.MaxDepth || len(idx) < 2*b.opts.MinLeaf {
		b.tree.Nodes[me].Value = b.leafValue(idx)
		return me
	}
	feat, thr, gain := b.bestSplit(idx)
	if feat < 0 || gain <= b.opts.MinGain {
		b.tree.Nodes[me].Value = b.leafValue(idx)
		return me
	}
	var left, right []int
	for _, i := range idx {
		if b.X[i][feat] <= thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < b.opts.MinLeaf || len(right) < b.opts.MinLeaf {
		b.tree.Nodes[me].Value = b.leafValue(idx)
		return me
	}
	b.tree.Nodes[me].Feature = feat
	b.tree.Nodes[me].Threshold = thr
	l := b.grow(left, depth+1)
	r := b.grow(right, depth+1)
	b.tree.Nodes[me].Left = l
	b.tree.Nodes[me].Right = r
	return me
}

// bestSplit scans histogram-binned candidate thresholds on every feature and
// returns the split maximizing the variance-reduction (or, second-order, the
// regularized gain (Σg_L)²/(Σh_L+λ) + (Σg_R)²/(Σh_R+λ) − (Σg)²/(Σh+λ)).
func (b *builder) bestSplit(idx []int) (feature int, threshold, gain float64) {
	d := len(b.X[idx[0]])
	feature = -1
	var totG, totH float64
	for _, i := range idx {
		totG += b.G[i]
		totH += b.hess(i)
	}
	lam := b.opts.Lambda
	parentScore := totG * totG / (totH + lam)

	binsG := make([]float64, b.opts.Bins)
	binsH := make([]float64, b.opts.Bins)
	binsN := make([]int, b.opts.Bins)
	for f := 0; f < d; f++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, i := range idx {
			v := b.X[i][f]
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if hi <= lo {
			continue
		}
		for k := range binsG {
			binsG[k], binsH[k], binsN[k] = 0, 0, 0
		}
		scale := float64(b.opts.Bins) / (hi - lo)
		for _, i := range idx {
			k := int((b.X[i][f] - lo) * scale)
			if k >= b.opts.Bins {
				k = b.opts.Bins - 1
			}
			binsG[k] += b.G[i]
			binsH[k] += b.hess(i)
			binsN[k]++
		}
		var cg, ch float64
		cn := 0
		for k := 0; k < b.opts.Bins-1; k++ {
			cg += binsG[k]
			ch += binsH[k]
			cn += binsN[k]
			if cn < b.opts.MinLeaf || len(idx)-cn < b.opts.MinLeaf {
				continue
			}
			rg, rh := totG-cg, totH-ch
			g := cg*cg/(ch+lam) + rg*rg/(rh+lam) - parentScore
			if g > gain {
				gain = g
				feature = f
				threshold = lo + float64(k+1)/scale
			}
		}
	}
	return feature, threshold, gain
}

// Predict evaluates the tree at feature vector x.
func (t *Regressor) Predict(x []float64) float64 {
	if len(t.Nodes) == 0 {
		return 0
	}
	i := int32(0)
	for {
		nd := &t.Nodes[i]
		if nd.Feature < 0 {
			return nd.Value
		}
		if x[nd.Feature] <= nd.Threshold {
			i = nd.Left
		} else {
			i = nd.Right
		}
	}
}

// Predict1 evaluates a univariate tree at scalar x without allocating.
func (t *Regressor) Predict1(x float64) float64 {
	if len(t.Nodes) == 0 {
		return 0
	}
	i := int32(0)
	for {
		nd := &t.Nodes[i]
		if nd.Feature < 0 {
			return nd.Value
		}
		if x <= nd.Threshold {
			i = nd.Left
		} else {
			i = nd.Right
		}
	}
}

// AppendThresholds appends every internal-node split threshold to out and
// returns the extended slice. For a univariate tree these are exactly the
// x positions where Predict1 can jump — callers tabulating the prediction
// function (e.g. integration grids) align their panels with them.
func (t *Regressor) AppendThresholds(out []float64) []float64 {
	for i := range t.Nodes {
		if t.Nodes[i].Feature >= 0 {
			out = append(out, t.Nodes[i].Threshold)
		}
	}
	return out
}

// Depth returns the maximum depth of the tree (a single leaf has depth 0).
//
//lint:deadexport the tests hold the MaxDepth bound with it
func (t *Regressor) Depth() int {
	if len(t.Nodes) == 0 {
		return 0
	}
	var rec func(i int32) int
	rec = func(i int32) int {
		nd := &t.Nodes[i]
		if nd.Feature < 0 {
			return 0
		}
		l, r := rec(nd.Left), rec(nd.Right)
		if l > r {
			return l + 1
		}
		return r + 1
	}
	return rec(0)
}

// Classifier is a CART classification tree with majority-vote leaves,
// trained by Gini impurity reduction. It powers the ensemble regressor's
// per-range model selection.
type Classifier struct {
	Nodes   []node // Value holds the class label as float64
	Classes int
}

// ClsOptions controls classification-tree growth.
type ClsOptions struct {
	MaxDepth int // default 4
	MinLeaf  int // default 3
	Bins     int // default 32
}

func (o *ClsOptions) withDefaults() ClsOptions {
	out := ClsOptions{MaxDepth: 4, MinLeaf: 3, Bins: 32}
	if o == nil {
		return out
	}
	if o.MaxDepth > 0 {
		out.MaxDepth = o.MaxDepth
	}
	if o.MinLeaf > 0 {
		out.MinLeaf = o.MinLeaf
	}
	if o.Bins > 0 {
		out.Bins = o.Bins
	}
	return out
}

// FitClassifier fits a Gini-impurity classification tree mapping rows of X
// to integer class labels y in [0, classes).
func FitClassifier(X [][]float64, y []int, classes int, opts *ClsOptions) (*Classifier, error) {
	n := len(X)
	if n == 0 {
		return nil, errors.New("tree: empty training set")
	}
	if len(y) != n {
		return nil, errors.New("tree: X and y length mismatch")
	}
	if classes < 1 {
		return nil, errors.New("tree: classes must be >= 1")
	}
	for _, c := range y {
		if c < 0 || c >= classes {
			return nil, errors.New("tree: label out of range")
		}
	}
	o := opts.withDefaults()
	t := &Classifier{Classes: classes}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	cb := &clsBuilder{X: X, Y: y, classes: classes, opts: o, tree: t}
	cb.grow(idx, 0)
	return t, nil
}

type clsBuilder struct {
	X       [][]float64
	Y       []int
	classes int
	opts    ClsOptions
	tree    *Classifier
}

func (b *clsBuilder) majority(idx []int) float64 {
	counts := make([]int, b.classes)
	for _, i := range idx {
		counts[b.Y[i]]++
	}
	best, bestN := 0, -1
	for c, n := range counts {
		if n > bestN {
			best, bestN = c, n
		}
	}
	return float64(best)
}

func gini(counts []int, total int) float64 {
	if total == 0 {
		return 0
	}
	s := 1.0
	for _, c := range counts {
		p := float64(c) / float64(total)
		s -= p * p
	}
	return s
}

func (b *clsBuilder) grow(idx []int, depth int) int32 {
	me := int32(len(b.tree.Nodes))
	b.tree.Nodes = append(b.tree.Nodes, node{Feature: -1})
	pure := true
	for _, i := range idx[1:] {
		if b.Y[i] != b.Y[idx[0]] {
			pure = false
			break
		}
	}
	if pure || depth >= b.opts.MaxDepth || len(idx) < 2*b.opts.MinLeaf {
		b.tree.Nodes[me].Value = b.majority(idx)
		return me
	}
	feat, thr, ok := b.bestSplit(idx)
	if !ok {
		b.tree.Nodes[me].Value = b.majority(idx)
		return me
	}
	var left, right []int
	for _, i := range idx {
		if b.X[i][feat] <= thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < b.opts.MinLeaf || len(right) < b.opts.MinLeaf {
		b.tree.Nodes[me].Value = b.majority(idx)
		return me
	}
	b.tree.Nodes[me].Feature = feat
	b.tree.Nodes[me].Threshold = thr
	l := b.grow(left, depth+1)
	r := b.grow(right, depth+1)
	b.tree.Nodes[me].Left = l
	b.tree.Nodes[me].Right = r
	return me
}

func (b *clsBuilder) bestSplit(idx []int) (feature int, threshold float64, ok bool) {
	d := len(b.X[idx[0]])
	parentCounts := make([]int, b.classes)
	for _, i := range idx {
		parentCounts[b.Y[i]]++
	}
	bestImp := gini(parentCounts, len(idx))
	feature = -1
	for f := 0; f < d; f++ {
		vals := make([]float64, 0, len(idx))
		for _, i := range idx {
			vals = append(vals, b.X[i][f])
		}
		sort.Float64s(vals)
		if vals[0] == vals[len(vals)-1] {
			continue
		}
		// Candidate thresholds: quantiles of the feature values.
		for k := 1; k < b.opts.Bins; k++ {
			thr := vals[k*len(vals)/b.opts.Bins]
			lc := make([]int, b.classes)
			rc := make([]int, b.classes)
			ln, rn := 0, 0
			for _, i := range idx {
				if b.X[i][f] <= thr {
					lc[b.Y[i]]++
					ln++
				} else {
					rc[b.Y[i]]++
					rn++
				}
			}
			if ln < b.opts.MinLeaf || rn < b.opts.MinLeaf {
				continue
			}
			imp := (float64(ln)*gini(lc, ln) + float64(rn)*gini(rc, rn)) / float64(len(idx))
			if imp < bestImp-1e-12 {
				bestImp = imp
				feature = f
				threshold = thr
				ok = true
			}
		}
	}
	return feature, threshold, ok
}

// Predict returns the class label for feature vector x.
func (t *Classifier) Predict(x []float64) int {
	if len(t.Nodes) == 0 {
		return 0
	}
	i := int32(0)
	for {
		nd := &t.Nodes[i]
		if nd.Feature < 0 {
			return int(nd.Value)
		}
		if x[nd.Feature] <= nd.Threshold {
			i = nd.Left
		} else {
			i = nd.Right
		}
	}
}
