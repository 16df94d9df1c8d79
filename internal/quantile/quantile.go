// Package quantile estimates the weight-CDF of a distributed stream —
// F(x) = (total weight on items of weight <= x) / W — and its rank
// quantiles, from the weighted SWOR the paper's protocol maintains.
//
// The estimator is the bottom-k/priority-sampling construction over the
// protocol's precision-sampling keys (v = w/t, t ~ Exp(1)), combined
// with the Section 5 idea of calibrating totals from an extreme order
// statistic of the keys: conditioned on tau, the s-th largest key, each
// of the s-1 items with keys above tau was included with probability
// P(v > tau) = 1 - e^(-w/tau), so its Horvitz-Thompson adjusted weight
// w / (1 - e^(-w/tau)) makes any subset sum — in particular every CDF
// numerator and the normalizing total itself — conditionally unbiased
// (Cohen & Kaplan's bottom-k subset-sum estimator; see also
// Hübschle-Schneider & Sanders, arXiv:1910.11069, which treats the
// distributed weighted sample as exactly this kind of substrate).
//
// Because the merged top-s of per-shard top-s samples is exactly the
// global top-s (the fabric's union property), the estimate is identical
// whether the sample came from one protocol instance or a P-way sharded
// fabric — Summarize never needs to know.
//
// Accuracy: a self-normalized ratio of subset sums over s weighted
// samples has error O(sqrt(log(1/delta)/s)) uniformly over prefixes, so
// Params provisions s = ceil(SFactor * ln(2/delta) / eps^2) for
// additive CDF error eps with probability 1-delta.
package quantile

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"wrs/internal/core"
	"wrs/internal/sample"
)

// Params selects the accuracy of the quantile estimate.
type Params struct {
	Eps   float64 // additive CDF error
	Delta float64 // failure probability
	// SFactor scales the sample size s = SFactor*ln(2/delta)/eps^2.
	// 0 means 4, a comfortable constant for the uniform-over-prefixes
	// guarantee (2 is the with-replacement DKW constant; SWOR is at
	// least as concentrated by negative association, and the extra
	// factor absorbs the self-normalization).
	SFactor float64
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if !(p.Eps > 0 && p.Eps < 1) || !(p.Delta > 0 && p.Delta < 1) {
		return fmt.Errorf("quantile: need eps, delta in (0,1), got %v, %v", p.Eps, p.Delta)
	}
	return nil
}

func (p Params) sFactor() float64 {
	if p.SFactor <= 0 {
		return 4
	}
	return p.SFactor
}

// SampleSize returns the SWOR sample size s the parameters require.
func (p Params) SampleSize() int {
	return int(math.Ceil(p.sFactor() * math.Log(2/p.Delta) / (p.Eps * p.Eps)))
}

// Summary is a queryable estimate of the stream's weight-CDF, built
// from a weighted SWOR by Summarize. The zero value is an empty stream
// (Total 0, CDF identically 0).
type Summary struct {
	ws        []float64 // support weights, ascending
	cum       []float64 // cum[i]: adjusted weight of ws[:i+1]
	total     float64
	tau       float64
	saturated bool
}

// Summarize builds a Summary from sample-candidate entries and the
// configured sample size s. The entries may be the concatenated
// snapshots of several protocol shards: the exact top-s merge happens
// here, by selection in linear time; entries is reordered in place.
// With fewer than s entries after the merge the stream itself had fewer
// than s items, so the summary is exact; otherwise the s-th largest key
// becomes the calibration threshold tau and the remaining s-1 items
// carry Horvitz-Thompson weights.
func Summarize(entries []core.SampleEntry, s int) Summary {
	top := sample.SelectTop(entries, s, core.ByKeyDesc)
	sm := Summary{}
	if len(top) >= s && s > 0 {
		sm.saturated = true
		// tau is the smallest selected key; its item leaves the support.
		last := 0
		for i := range top {
			if top[i].Key < top[last].Key {
				last = i
			}
		}
		top[last], top[s-1] = top[s-1], top[last]
		sm.tau = top[s-1].Key
		top = top[:s-1]
	}
	sm.ws = make([]float64, len(top))
	for i, e := range top {
		sm.ws[i] = e.Item.Weight
	}
	slices.Sort(sm.ws)
	// The adjusted weight is a function of the weight alone, so prefix
	// sums in ascending-weight order do not depend on how ties sort.
	sm.cum = make([]float64, len(sm.ws))
	for i, w := range sm.ws {
		adj := w
		if sm.saturated {
			// Inclusion probability given tau: P(w/t > tau) = 1 - e^(-w/tau).
			adj = w / -math.Expm1(-w/sm.tau)
		}
		sm.total += adj
		sm.cum[i] = sm.total
	}
	return sm
}

// Saturated reports whether the summary is in estimation mode (the
// stream exceeded the sample size). When false, Total, CDF, and
// Quantile are exact.
func (sm Summary) Saturated() bool { return sm.saturated }

// Threshold returns tau, the calibration key (0 while exact).
func (sm Summary) Threshold() float64 { return sm.tau }

// Support returns the number of distinct sampled support points.
func (sm Summary) Support() int { return len(sm.ws) }

// Total returns the estimated total weight W of the stream — the
// Section 5 calibration at work: exact while the sample holds
// everything, afterwards the sum of the HT-adjusted weights, which is
// conditionally unbiased for W given tau.
func (sm Summary) Total() float64 { return sm.total }

// CDF returns the estimated fraction of total weight carried by items
// of weight <= x. It is a nondecreasing step function from 0 to 1.
func (sm Summary) CDF(x float64) float64 {
	if sm.total <= 0 {
		return 0
	}
	// Largest i with ws[i] <= x.
	i := sort.Search(len(sm.ws), func(i int) bool { return sm.ws[i] > x })
	if i == 0 {
		return 0
	}
	return sm.cum[i-1] / sm.total
}

// Quantile returns the smallest sampled weight x with CDF(x) >= phi —
// the phi rank-quantile of the weight distribution (phi <= 0 yields the
// smallest support point, phi >= 1 the largest). ok is false on an
// empty summary.
func (sm Summary) Quantile(phi float64) (x float64, ok bool) {
	if len(sm.ws) == 0 || sm.total <= 0 {
		return 0, false
	}
	target := phi * sm.total
	i := sort.Search(len(sm.cum), func(i int) bool { return sm.cum[i] >= target })
	if i == len(sm.cum) {
		i = len(sm.cum) - 1
	}
	return sm.ws[i], true
}

// Oracle accumulates the exact weight distribution — the ground truth
// tests and demos compare a Summary against.
type Oracle struct {
	weights []float64
	total   float64
	sorted  bool
}

// Observe records one arrival's weight.
func (o *Oracle) Observe(w float64) {
	o.weights = append(o.weights, w)
	o.total += w
	o.sorted = false
}

// Total returns the exact total weight.
func (o *Oracle) Total() float64 { return o.total }

func (o *Oracle) sort() {
	if !o.sorted {
		sort.Float64s(o.weights)
		o.sorted = true
	}
}

// CDF returns the exact fraction of total weight on items of weight <= x.
func (o *Oracle) CDF(x float64) float64 {
	if o.total <= 0 {
		return 0
	}
	o.sort()
	var sum float64
	for _, w := range o.weights {
		if w > x {
			break
		}
		sum += w
	}
	return sum / o.total
}

// Quantile returns the exact phi rank-quantile of the weight
// distribution.
func (o *Oracle) Quantile(phi float64) (float64, bool) {
	if len(o.weights) == 0 || o.total <= 0 {
		return 0, false
	}
	o.sort()
	target := phi * o.total
	var sum float64
	for _, w := range o.weights {
		sum += w
		if sum >= target {
			return w, true
		}
	}
	return o.weights[len(o.weights)-1], true
}
