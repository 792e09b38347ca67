package main

import (
	"encoding/json"
	"math"
	"testing"
	"time"

	"dynagg/internal/experiments"
	"dynagg/internal/stats"
)

// TestWrongTruthIsCounted feeds the checkers a wrong truth and asserts
// that the operations are counted as failed and the result line says
// so.
func TestWrongTruthIsCounted(t *testing.T) {
	estimates := []float64{49.98, 50.01, 50.02}

	var good report
	good.count(7, checkMean(estimates, 50, 1e-3))
	if good.attempted != 7 || good.failed != 0 {
		t.Fatalf("right truth: %d/%d failed, want 0/7", good.failed, good.attempted)
	}

	var bad report
	bad.count(7, checkMean(estimates, 51, 1e-3))
	if bad.attempted != 7 || bad.failed != 7 {
		t.Fatalf("wrong truth: %d/%d failed, want 7/7", bad.failed, bad.attempted)
	}
	line, err := resultJSON(&bad, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Correct           bool
		Attempted, Failed int64
	}
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatal(err)
	}
	if got.Correct || got.Failed != 7 || got.Attempted != 7 {
		t.Errorf("result line %s, want correct=false with 7/7 failed", line)
	}
}

func TestGatewayReadCheck(t *testing.T) {
	var rep report
	right := newAggReads("load", gwWorkers, 3.5)
	for _, avg := range []float64{3.4, 3.6, math.NaN(), 9} {
		rep.count(1, right.add(avg))
	}
	if rep.attempted != 4 || rep.failed != 2 {
		t.Errorf("%d/%d reads failed, want 2/4 (NaN and out of range)", rep.failed, rep.attempted)
	}
	if err := right.check(gwMeanTol); err != nil {
		rep.failAll(err)
	}
	if rep.failed != 2 {
		t.Errorf("right truth failed the run: %d/%d", rep.failed, rep.attempted)
	}

	wrong := newAggReads("load", gwWorkers, 4.5) // wrong truth
	for _, avg := range []float64{3.4, 3.6} {
		rep.count(1, wrong.add(avg))
	}
	if err := wrong.check(gwMeanTol); err != nil {
		rep.failAll(err)
	}
	if rep.failed != rep.attempted || rep.attempted != 6 {
		t.Errorf("wrong truth: %d/%d failed, want 6/6", rep.failed, rep.attempted)
	}
}

func TestNonFiniteEstimateFails(t *testing.T) {
	if checkMean([]float64{50, math.Inf(1)}, 50, 1) == nil {
		t.Error("an infinite estimate passed")
	}
	if checkMean(nil, 50, 1) == nil {
		t.Error("an empty estimate set passed")
	}
}

// TestFailAllCountsWholeRun is the live workload's rule: a wrong final
// mean fails every message of the run, drops included.
func TestFailAllCountsWholeRun(t *testing.T) {
	var rep report
	rep.count(100, nil)
	rep.count(3, nil)
	if err := checkMean([]float64{10, 10}, 20, liveTol); err != nil {
		rep.failAll(err)
	}
	if rep.failed != 103 || rep.attempted != 103 {
		t.Errorf("%d/%d failed, want 103/103", rep.failed, rep.attempted)
	}
}

// series builds a flat series of n points at y.
func series(label string, n int, y float64) stats.Series {
	s := stats.Series{Label: label}
	for i := 0; i < n; i++ {
		s.Append(float64(i), y)
	}
	return s
}

func TestFig10bCheckHoldsPaperNumbers(t *testing.T) {
	mk := func(lam01, lam05 float64) experiments.Result {
		var r experiments.Result
		for _, y := range []float64{25, 20, 10, lam01, lam05} {
			r.Series = append(r.Series, series("", 10, y))
		}
		return r
	}
	if err := checkFig10b(mk(0.7, 2.1)); err != nil {
		t.Errorf("paper-like plateaus rejected: %v", err)
	}
	if checkFig10b(mk(1.5, 2.1)) == nil {
		t.Error("λ=0.1 plateau 1.5 (paper 0.694) passed")
	}
}

func TestFig9CheckNeedsLimitedBelowHalfNaive(t *testing.T) {
	r := experiments.Result{Series: []stats.Series{
		series("propagation limiting on", 5, 600),
		series("propagation limiting off", 5, 1000),
	}}
	if checkFig9(r) == nil {
		t.Error("limited 600 vs naive 1000 passed")
	}
	r.Series[0] = series("propagation limiting on", 5, 100)
	if err := checkFig9(r); err != nil {
		t.Errorf("limited 100 vs naive 1000 rejected: %v", err)
	}
}

func TestCovered(t *testing.T) {
	p := span{start: 0, end: 100}
	kids := []span{{start: 10, end: 30}, {start: 20, end: 40}, {start: 60, end: 70}, {start: 90, end: 120}}
	if got := covered(p, kids); got != 50 {
		t.Errorf("covered = %d, want 50", got)
	}
}

func TestLatHistQuantiles(t *testing.T) {
	h := newLatHist()
	for i := 1; i <= 99; i++ {
		h.add(time.Duration(i) * time.Microsecond)
	}
	h.add(5 * time.Millisecond) // beyond the buckets
	if got := h.quantile(0.5); got < 50*time.Microsecond || got > 51*time.Microsecond {
		t.Errorf("median %v, want 50µs within a bucket", got)
	}
	if got := h.quantile(1); got != 5*time.Millisecond {
		t.Errorf("max %v, want 5ms", got)
	}
}
