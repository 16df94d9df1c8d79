package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 <= p <= 100) of xs by the
// nearest-rank rule on a sorted copy; 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := int(math.Ceil(p / 100 * float64(len(s))))
	if r < 1 {
		r = 1
	}
	if r > len(s) {
		r = len(s)
	}
	return s[r-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailPercentiles are the tail ranks the benchmark reports, highest
// first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// supportedTail returns the highest of tailPercentiles that leaves at
// least 10 of n samples beyond it — the highest percentile a sample of
// n supports. It returns 50 when n is too small for any tail.
func supportedTail(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10-1e-9 { // 100-99.9 is not exact in binary
			return p
		}
	}
	return 50
}

// quartiles returns the first quartile, median and third quartile of
// xs, interpolated the way Python's statistics.quantiles(xs, n=4)
// computes them (the "exclusive" method), so spreads printed here match
// the ones a reviewer recomputes from the printed values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(j int) float64 {
		n := len(s)
		m := float64(n + 1)
		pos := float64(j) * m / 4 // 1-based position
		lo := int(math.Floor(pos))
		frac := pos - float64(lo)
		if lo < 1 {
			return s[0]
		}
		if lo >= n {
			return s[n-1]
		}
		return s[lo-1] + frac*(s[lo]-s[lo-1])
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// theorem3Bound is the message bound of the paper's Theorem 3 without
// its constant, k·ln(W/s)/ln(1+k/s), for k sites, sample size s and
// total stream weight W. Streams with W/s below e count as one epoch
// (ln clamped to 1), so the bound stays positive on tiny inputs.
func theorem3Bound(k, s int, w float64) float64 {
	l := math.Log(w / float64(s))
	if l < 1 {
		l = 1
	}
	return float64(k) * l / math.Log1p(float64(k)/float64(s))
}

// weightedCDF is the exact weight-CDF F(x) = (weight on items of
// weight <= x) / W of a stream, where the stream is a base buffer of
// weights whose j-th element occurs mult(j) times.
type weightedCDF struct {
	ws  []float64 // distinct-position weights, ascending
	cum []float64 // prefix sums of weight·multiplicity
}

// newWeightedCDF builds the exact CDF of the stream that repeats base
// cyclically for n items in total.
func newWeightedCDF(base []float64, n int64) *weightedCDF {
	b := int64(len(base))
	full, rem := n/b, n%b
	type wm struct{ w, mass float64 }
	pts := make([]wm, len(base))
	for j, w := range base {
		m := float64(full)
		if int64(j) < rem {
			m++
		}
		pts[j] = wm{w, w * m}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].w < pts[j].w })
	c := &weightedCDF{ws: make([]float64, len(pts)), cum: make([]float64, len(pts))}
	var sum float64
	for i, p := range pts {
		sum += p.mass
		c.ws[i] = p.w
		c.cum[i] = sum
	}
	return c
}

// At returns F(x).
func (c *weightedCDF) At(x float64) float64 {
	i := sort.Search(len(c.ws), func(i int) bool { return c.ws[i] > x })
	if i == 0 || len(c.cum) == 0 {
		return 0
	}
	return c.cum[i-1] / c.cum[len(c.cum)-1]
}

// Quantile returns the smallest weight x with F(x) >= phi.
func (c *weightedCDF) Quantile(phi float64) float64 {
	total := c.cum[len(c.cum)-1]
	i := sort.Search(len(c.cum), func(i int) bool { return c.cum[i] >= phi*total })
	if i == len(c.cum) {
		i--
	}
	return c.ws[i]
}

// maxCDFError returns the largest |est(x) - F(x)| over a grid of points
// of F: its quantiles at `grid` evenly spaced ranks, each evaluated at
// the point and just below it (both step functions jump there).
func (c *weightedCDF) maxCDFError(est func(float64) float64, grid int) float64 {
	var worst float64
	for i := 0; i <= grid; i++ {
		x := c.Quantile(float64(i) / float64(grid))
		for _, y := range []float64{x, math.Nextafter(x, 0)} {
			if d := math.Abs(est(y) - c.At(y)); d > worst {
				worst = d
			}
		}
	}
	return worst
}
