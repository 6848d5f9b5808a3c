package stats

import (
	"errors"
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{5}, 5},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{-1, -1, 7}, -1},
	} {
		if got := Median(tc.in); got != tc.want {
			t.Errorf("Median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("Median(nil) is not NaN")
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{7}, [3]float64{7, 7, 7}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, [3]float64{1.75, 3.5, 5.25}},
		{[]float64{10, 20, 30, 40, 50, 60, 70}, [3]float64{20, 40, 60}},
	} {
		q1, q2, q3 := Quartiles(tc.in)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("Quartiles(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestSpread(t *testing.T) {
	if got := Spread([]float64{1, 2, 3, 4}); math.Abs(got-1) > 1e-12 {
		t.Errorf("Spread = %v, want 1 (IQR 2.5 over median 2.5)", got)
	}
	if got := Spread([]float64{5, 5, 5}); got != 0 {
		t.Errorf("Spread of constants = %v, want 0", got)
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so sorting matters
		}
		return xs
	}
	for _, tc := range []struct {
		n       int
		p       float64
		want    float64
		refused bool
	}{
		{1000, 99, 990, false},
		{999, 99, 0, true},
		{20, 50, 10, false},
		{19, 50, 0, true}, // rank 10 leaves 9 beyond
		{100, 90, 90, false},
	} {
		got, err := Percentile(ramp(tc.n), tc.p)
		if tc.refused {
			if !errors.Is(err, ErrTooFew) {
				t.Errorf("p%v of %d: err = %v, want ErrTooFew", tc.p, tc.n, err)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("p%v of %d = %v, %v; want %v", tc.p, tc.n, got, err, tc.want)
		}
	}
	if _, err := Percentile(ramp(2000), 100); err == nil {
		t.Error("p100 accepted")
	}
}

func TestBootstrapCIIsSeededAndCoversMedian(t *testing.T) {
	xs := []float64{9, 11, 10, 12, 8, 10, 10, 11, 9, 10, 13, 7}
	lo, hi, err := BootstrapCI(xs, 1000, 42)
	if err != nil {
		t.Fatal(err)
	}
	if m := Median(xs); lo > m || hi < m || lo >= hi {
		t.Errorf("CI [%v, %v] does not bracket median %v", lo, hi, m)
	}
	lo2, hi2, _ := BootstrapCI(xs, 1000, 42)
	if lo2 != lo || hi2 != hi {
		t.Errorf("same seed gave [%v, %v] then [%v, %v]", lo, hi, lo2, hi2)
	}
	if _, _, err := BootstrapCI(xs[:1], 1000, 1); !errors.Is(err, ErrTooFew) {
		t.Errorf("one sample: err = %v, want ErrTooFew", err)
	}
}

func TestComparePaired(t *testing.T) {
	parent := []float64{100, 102, 98, 101, 99, 100, 103, 97, 100, 101}
	shift := func(xs []float64, d float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x + d
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		change []float64
		lower  bool
		gain   bool
	}{
		{"clear drop in a lower-is-better metric", shift(parent, -10), true, true},
		{"same drop when higher is better", shift(parent, -10), false, false},
		{"drop inside the parent's spread", shift(parent, -1), true, false},
		{"wins 8 of 10", append(shift(parent[:8], -10), parent[8]+50, parent[9]+50), true, false},
		{"clear rise when higher is better", shift(parent, 10), false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := ComparePaired(parent, tc.change, tc.lower)
			if err != nil {
				t.Fatal(err)
			}
			if r.Gain != tc.gain {
				t.Errorf("Gain = %v, want %v (%+v)", r.Gain, tc.gain, r)
			}
			if r.Wins+r.Losses+r.Ties != r.Pairs {
				t.Errorf("wins %d + losses %d + ties %d != pairs %d", r.Wins, r.Losses, r.Ties, r.Pairs)
			}
		})
	}
	if _, err := ComparePaired(parent[:9], parent[:9], true); !errors.Is(err, ErrTooFew) {
		t.Errorf("9 pairs: err = %v, want ErrTooFew", err)
	}
	if _, err := ComparePaired(parent, parent[:9], true); err == nil {
		t.Error("unequal run counts accepted")
	}
}
