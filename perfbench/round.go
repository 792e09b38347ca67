package main

import (
	"fmt"
	"time"

	"dynagg/internal/env"
	"dynagg/internal/gossip"
	"dynagg/internal/protocol/pushsumrevert"
)

// round-1m: the round engine alone. Columnar Push-Sum-Revert (λ=0.01),
// push model, 1,000,000 hosts, Workers = GOMAXPROCS; the timed phase
// is a run of Engine.Step calls, each timed on its own.
const (
	roundHosts   = 1_000_000
	roundLambda  = 0.01
	roundWarmup  = 2
	roundMinStep = 5
	// roundTol is the largest relative error of the mean estimate.
	roundTol = 1e-3
)

func runRound1M(p params) (*report, error) {
	rep := &report{}
	values := uniformValues(roundHosts, p.seed)
	engSeed := inputRand(p.seed, streamEngineSeed).Uint64()

	build := func() (*gossip.Engine, error) {
		var col gossip.ColumnarAgent = pushsumrevert.NewColumnar(values, pushsumrevert.Config{Lambda: roundLambda})
		if p.rec != nil {
			col = traceAgent(col, p.rec)
		}
		eng, err := gossip.NewEngine(gossip.Config{
			Env: env.NewUniform(roundHosts), Columnar: col, Model: gossip.Push,
			Seed: engSeed, Workers: gossip.DefaultWorkers(),
		})
		if err != nil {
			return nil, fmt.Errorf("building engine: %w", err)
		}
		eng.Run(roundWarmup)
		return eng, nil
	}
	eng, err := timeSetup(rep, build)
	if err != nil {
		return nil, err
	}

	settle()
	if p.rec != nil {
		p.rec.reset()
	}
	m0, msgs0 := snapMem(), eng.Messages()
	var steps []time.Duration
	start := time.Now()
	for len(steps) < roundMinStep || time.Since(start) < p.seconds {
		var id, ts int64
		if p.rec != nil {
			id, ts = p.rec.open()
		}
		t0 := time.Now()
		eng.Step()
		steps = append(steps, time.Since(t0))
		if p.rec != nil {
			p.rec.close("gossip.step", id, ts, int64(eng.Round()-1))
		}
	}
	m1, msgs1 := snapMem(), eng.Messages()
	rep.peakRSS = peakRSSMB()
	rep.step = medianDur(steps)

	// Every round fails when the final estimates are wrong.
	rep.count(int64(len(steps)), checkMean(eng.Estimates(), mean(values), roundTol))
	workers := eng.Workers()
	eng = nil
	if err := repeatSetups(p, rep, build, func(*gossip.Engine) error { return nil }); err != nil {
		return nil, err
	}
	rep.display = []metric{
		{"setup_s", medianDur(rep.setups).Seconds(), "s"},
		{"round_ms", ms(rep.step), "ms"},
		{"rounds", float64(len(steps)), "count"},
	}
	if p.rec != nil {
		rounds := float64(len(steps))
		rep.layers = map[string]metric{}
		l := rep.layers
		put(l, "traced.step_ms", ms(rep.step), "ms")
		putEngineLayers(l, p.rec, rounds, workers)
		put(l, "gossip.msgs_per_round", float64(msgs1-msgs0)/rounds, "count")
		put(l, "gossip.allocs_per_round", float64(m1.mallocs-m0.mallocs)/rounds, "count")
		gcLayers(l, m0, m1)
	}
	return rep, nil
}
