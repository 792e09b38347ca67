package main

import (
	"fmt"
	"math"
	"os"
	"strings"

	"dynagg/internal/experiments"
	"dynagg/internal/gateway"
	"dynagg/internal/stats"
)

// maxLogged caps the failures a run prints.
const maxLogged = 5

// count adds ops operations to the report, all of them failed when err
// is non-nil. The first few failures are printed to stderr.
func (r *report) count(ops int64, err error) {
	r.attempted += ops
	if err != nil {
		r.failed += ops
		r.logFailure(err)
	}
}

// failAll marks every operation attempted so far failed, for a check
// that fails the whole run.
func (r *report) failAll(err error) {
	r.failed = r.attempted
	r.logFailure(err)
}

func (r *report) logFailure(err error) {
	if r.logged < maxLogged {
		r.logged++
		fmt.Fprintf(os.Stderr, "check failed: %v\n", err)
	}
}

// uniformValues draws the paper's standard host values, uniform in
// [0, 100), from the seed.
func uniformValues(n int, seed uint64) []float64 {
	rng := inputRand(seed, streamValues)
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.Float64() * 100
	}
	return out
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// checkMean fails when any estimate is non-finite, when there are none,
// or when their mean is more than tol (relative) off truth.
func checkMean(estimates []float64, truth, tol float64) error {
	if len(estimates) == 0 {
		return fmt.Errorf("no estimates")
	}
	for i, e := range estimates {
		if math.IsNaN(e) || math.IsInf(e, 0) {
			return fmt.Errorf("estimate %d is %v", i, e)
		}
	}
	got := mean(estimates)
	if rel := math.Abs(got-truth) / math.Abs(truth); !(rel <= tol) {
		return fmt.Errorf("mean estimate %.6g is %.3g relative off truth %.6g (limit %g)", got, rel, truth, tol)
	}
	return nil
}

// checkAverage reports whether got lies within tol (relative, floored
// at 0.5 absolute for near-zero truths) of truth.
func checkAverage(got, truth, tol float64) error {
	lim := math.Max(tol*math.Abs(truth), 0.5)
	if !(math.Abs(got-truth) <= lim) {
		return fmt.Errorf("average %.4g, truth %.4g (limit ±%.3g)", got, truth, lim)
	}
	return nil
}

// aggReads checks the averages served for one aggregate of
// gateway-read: each must lie within the range of the host values it
// averages, and their mean within a tolerance of the true mean.
type aggReads struct {
	name          string
	lo, hi, truth float64
	sum           float64
	n             int
}

func newAggReads(name string, hosts int, truth float64) aggReads {
	a := aggReads{name: name, lo: math.Inf(1), hi: math.Inf(-1), truth: truth}
	for id := 0; id < hosts; id++ {
		v := gateway.DemoValue(name, id)
		a.lo, a.hi = math.Min(a.lo, v), math.Max(a.hi, v)
	}
	return a
}

func (a *aggReads) add(avg float64) error {
	if !(avg >= a.lo && avg <= a.hi) {
		return fmt.Errorf("%s: average %.4g outside the host values' range [%g, %g]", a.name, avg, a.lo, a.hi)
	}
	a.sum += avg
	a.n++
	return nil
}

func (a *aggReads) check(tol float64) error {
	if a.n == 0 {
		return fmt.Errorf("%s: no successful reads", a.name)
	}
	if err := checkAverage(a.sum/float64(a.n), a.truth, tol); err != nil {
		return fmt.Errorf("%s: mean of %d served averages: %w", a.name, a.n, err)
	}
	return nil
}

// Figure checks: the properties the experiments package's own tests
// assert for each figure, applied at the benchmark's scale.

func lastY(s stats.Series) float64 { return s.Y[s.Len()-1] }

// checkSeries fails unless the result has want series, each with at
// least one point and every point finite.
func checkSeries(r experiments.Result, want int) error {
	if len(r.Series) != want {
		return fmt.Errorf("%d series, want %d", len(r.Series), want)
	}
	for i, s := range r.Series {
		if s.Len() == 0 {
			return fmt.Errorf("series %d is empty", i)
		}
		for _, y := range s.Y {
			if math.IsNaN(y) || math.IsInf(y, 0) {
				return fmt.Errorf("series %d holds %v", i, y)
			}
		}
	}
	return nil
}

func checkFig8(r experiments.Result) error {
	if err := checkSeries(r, len(experiments.PaperLambdas)); err != nil {
		return err
	}
	// λ=0 keeps the average under uncorrelated failures; large λ
	// trades accuracy for reactivity.
	if f := lastY(r.Series[0]); f > 2 {
		return fmt.Errorf("λ=0 final deviation %.3g, want ≤ 2", f)
	}
	if lastY(r.Series[4]) < lastY(r.Series[1]) {
		return fmt.Errorf("λ=0.5 final deviation %.3g below λ=0.001's %.3g", lastY(r.Series[4]), lastY(r.Series[1]))
	}
	return nil
}

func checkFig9(r experiments.Result) error {
	if err := checkSeries(r, 2); err != nil {
		return err
	}
	var limited, naive stats.Series
	for _, s := range r.Series {
		if strings.Contains(s.Label, "off") {
			naive = s
		} else {
			limited = s
		}
	}
	if limited.Len() == 0 || naive.Len() == 0 {
		return fmt.Errorf("missing the limited or the naive series")
	}
	if lastY(limited) > lastY(naive)/2 {
		return fmt.Errorf("limited final deviation %.3g not below naive/2 = %.3g", lastY(limited), lastY(naive)/2)
	}
	return nil
}

func checkFig10a(r experiments.Result) error {
	if err := checkSeries(r, len(experiments.PaperLambdas)); err != nil {
		return err
	}
	static, lam01 := lastY(r.Series[0]), lastY(r.Series[3])
	switch {
	case static < 10:
		return fmt.Errorf("λ=0 final deviation %.3g, want stuck near 25", static)
	case lam01 > 10:
		return fmt.Errorf("λ=0.1 final deviation %.3g, want reconverged", lam01)
	case lam01 >= static:
		return fmt.Errorf("λ=0.1 (%.3g) not better than λ=0 (%.3g)", lam01, static)
	}
	return nil
}

// checkFig10b holds the paper's two inline numbers: λ=0.1 and λ=0.5
// plateau within 35% of 0.694 and 2.13.
func checkFig10b(r experiments.Result) error {
	if err := checkSeries(r, len(experiments.PaperLambdas)); err != nil {
		return err
	}
	lam01, lam05 := r.Series[3].TailMean(5), r.Series[4].TailMean(5)
	static := r.Series[0].TailMean(5)
	switch {
	case math.Abs(lam01-0.694) > 0.35*0.694:
		return fmt.Errorf("λ=0.1 plateau %.3g, paper 0.694", lam01)
	case math.Abs(lam05-2.13) > 0.35*2.13:
		return fmt.Errorf("λ=0.5 plateau %.3g, paper 2.13", lam05)
	case static < 5*lam05:
		return fmt.Errorf("static plateau %.3g not clearly worse than λ=0.5's %.3g", static, lam05)
	}
	return nil
}

func checkFig11Avg(r experiments.Result) error {
	if err := checkSeries(r, len(experiments.TraceLambdas)+1); err != nil {
		return err
	}
	// Group-relative deviations are bounded by the value range.
	for _, s := range r.Series[:len(experiments.TraceLambdas)] {
		for _, y := range s.Y {
			if y < 0 || y > 100 {
				return fmt.Errorf("deviation %.3g outside [0, 100]", y)
			}
		}
	}
	return nil
}

func checkFig11Sum(r experiments.Result) error { return checkSeries(r, 4) }
