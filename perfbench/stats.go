package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile, so
// that the percentile rests on more than a handful of outliers.
const minBeyond = 10

// quantile is a reported percentile together with the sample count it
// was taken from.
type quantile struct {
	Value   float64
	Samples int
}

// percentile returns the p-th percentile (0 < p < 100) of xs by nearest
// rank. It refuses, with an error, when fewer than minBeyond samples lie
// above that rank.
func percentile(xs []float64, p float64) (quantile, error) {
	n := len(xs)
	if p <= 0 || p >= 100 {
		return quantile{Samples: n}, fmt.Errorf("percentile %g outside (0, 100)", p)
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return quantile{Samples: n}, fmt.Errorf("p%g of %d samples has %d beyond it; need %d",
			p, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile{Value: s[rank-1], Samples: n}, nil
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for no samples. Probes use it where a
// handful of repetitions is all there is.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomean returns the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
