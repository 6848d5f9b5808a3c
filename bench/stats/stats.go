// Package stats holds the order statistics and the comparison rule the
// relbench benchmark reports with. It uses the standard library only.
package stats

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// MinBeyond is how many samples must lie beyond a percentile before
// Percentile reports it: a p99 needs at least 1000 samples.
const MinBeyond = 10

// ErrTooFew reports a statistic asked of too few samples.
var ErrTooFew = errors.New("stats: too few samples")

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN for an empty slice.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the three cut points that split xs into four
// groups, by the same method as Python's statistics.quantiles(xs, n=4)
// (the default "exclusive" method), so a spread computed here matches
// one computed from the same numbers there. One sample yields itself
// three times; an empty slice yields NaNs.
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := sorted(xs)
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// Spread is the distance between the first and third quartiles as a
// share of the median: the run-to-run noise a bound must exceed.
func Spread(xs []float64) float64 {
	q1, q2, q3 := Quartiles(xs)
	if q2 == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(q2)
}

// Percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// xs. It refuses, with ErrTooFew, when fewer than MinBeyond samples lie
// beyond the rank: a p99 of 200 samples is the second-largest sample,
// not a percentile.
func Percentile(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("stats: percentile %v outside (0, 100)", p)
	}
	n := len(xs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 || n-rank < MinBeyond {
		return 0, fmt.Errorf("%w: p%v of %d samples leaves %d beyond it, want >= %d", ErrTooFew, p, n, n-rank, MinBeyond)
	}
	return sorted(xs)[rank-1], nil
}

// BootstrapCI returns a 95% percentile-bootstrap confidence interval
// for the median of xs from reps resamples drawn with the given seed,
// so the same inputs always give the same interval.
func BootstrapCI(xs []float64, reps int, seed int64) (lo, hi float64, err error) {
	if len(xs) < 2 || reps < 40 {
		return 0, 0, fmt.Errorf("%w: bootstrap needs >= 2 samples and >= 40 resamples", ErrTooFew)
	}
	rng := rand.New(rand.NewSource(seed))
	meds := make([]float64, reps)
	buf := make([]float64, len(xs))
	for r := range meds {
		for i := range buf {
			buf[i] = xs[rng.Intn(len(xs))]
		}
		meds[r] = Median(buf)
	}
	sort.Float64s(meds)
	return meds[int(0.025*float64(reps))], meds[int(math.Ceil(0.975*float64(reps)))-1], nil
}

// Paired is the verdict of the paired-comparison rule.
type Paired struct {
	Pairs, Wins, Losses, Ties int
	ParentMedian              float64
	ChangeMedian              float64
	// ParentIQR is the distance between the parent runs' quartiles.
	ParentIQR float64
	// Gain is true when the change wins at least nine tenths of the
	// pairs (ties count for neither side) and the medians differ by
	// more than ParentIQR in the change's favour.
	Gain bool
}

// MinPairs is the fewest alternating pairs the paired rule accepts.
const MinPairs = 10

// ComparePaired applies the paired-comparison rule to runs of a parent
// and a change, where parent[i] and change[i] ran back to back.
func ComparePaired(parent, change []float64, lowerIsBetter bool) (Paired, error) {
	if len(parent) != len(change) {
		return Paired{}, fmt.Errorf("stats: %d parent runs but %d change runs; pairs must match", len(parent), len(change))
	}
	if len(parent) < MinPairs {
		return Paired{}, fmt.Errorf("%w: %d pairs, want >= %d", ErrTooFew, len(parent), MinPairs)
	}
	better := func(a, b float64) bool { // a reads better than b
		if lowerIsBetter {
			return a < b
		}
		return a > b
	}
	r := Paired{Pairs: len(parent), ParentMedian: Median(parent), ChangeMedian: Median(change)}
	for i := range parent {
		switch {
		case better(change[i], parent[i]):
			r.Wins++
		case better(parent[i], change[i]):
			r.Losses++
		default:
			r.Ties++
		}
	}
	q1, _, q3 := Quartiles(parent)
	r.ParentIQR = q3 - q1
	r.Gain = 10*r.Wins >= 9*r.Pairs &&
		better(r.ChangeMedian, r.ParentMedian) &&
		math.Abs(r.ChangeMedian-r.ParentMedian) > r.ParentIQR
	return r, nil
}
