package main

import (
	"fmt"
	"time"

	"dynagg/internal/env"
	"dynagg/internal/experiments"
	"dynagg/internal/failure"
	"dynagg/internal/gossip"
	"dynagg/internal/protocol/pushsumrevert"
	"dynagg/internal/protocol/sketchreset"
	"dynagg/internal/sketch"
)

// stepTraced runs rounds engine steps, each under a gossip.step span.
func stepTraced(eng *gossip.Engine, rounds int, rec *recorder) {
	for i := 0; i < rounds; i++ {
		id, ts := rec.open()
		eng.Step()
		rec.close("gossip.step", id, ts, int64(eng.Round()-1))
	}
}

// probeFigureEngines runs, in a traced paper-figs run, the two engine
// shapes the figure drivers build internally, with the protocol wrapped
// in the timing decorator: Figure 8's push/pull Push-Sum-Revert
// (λ=0.01) and Figure 9's limited Count-Sketch-Reset, each at sc with
// half the hosts failing at sc.FailAt. It returns the rounds run and
// the messages and mallocs they cost.
func probeFigureEngines(sc experiments.Scale, rec *recorder) (rounds int, msgs int64, mallocs uint64, err error) {
	protos := []gossip.ColumnarAgent{
		pushsumrevert.NewColumnar(uniformValues(sc.N, sc.Seed), pushsumrevert.Config{Lambda: 0.01, PushPull: true}),
		sketchreset.NewColumnar(sc.N, sketchreset.Config{Params: sketch.DefaultParams, Identifiers: 1}),
	}
	for _, proto := range protos {
		environment := env.NewUniform(sc.N)
		eng, err := gossip.NewEngine(gossip.Config{
			Env: environment, Columnar: traceAgent(proto, rec), Model: gossip.PushPull,
			Seed: sc.Seed, Workers: sc.Workers,
			BeforeRound: []gossip.Hook{failure.RandomAt(sc.FailAt, 0.5, environment.Population, sc.Seed+13)},
		})
		if err != nil {
			return 0, 0, 0, fmt.Errorf("probe engine: %w", err)
		}
		settle()
		m0 := snapMem()
		stepTraced(eng, sc.Rounds, rec)
		mallocs += snapMem().mallocs - m0.mallocs
		rounds += sc.Rounds
		msgs += eng.Messages()
	}
	return rounds, msgs, mallocs, nil
}

// putEngineLayers derives the gossip and protocol metrics from the
// gossip.step spans and the kernel spans under them.
func putEngineLayers(l map[string]metric, rec *recorder, rounds float64, workers int) {
	stepWall, _, _ := rec.total("gossip.step")
	var busy time.Duration
	for _, ph := range []string{"begin", "emit", "deliver", "end", "exchange"} {
		d, _, _ := rec.total("protocol." + ph)
		busy += d
		put(l, "protocol."+ph+"_ms", ms(d)/rounds, "ms")
	}
	if d, _, delivered := rec.total("protocol.deliver"); delivered > 0 {
		put(l, "protocol.deliver_ns_per_msg", float64(d.Nanoseconds())/float64(delivered), "ns")
	}
	put(l, "gossip.engine_self_ms", ms(rec.selfTime("gossip.step"))/rounds, "ms")
	put(l, "gossip.shard_busy_ratio", busy.Seconds()/(float64(workers)*stepWall.Seconds()), "ratio")
}
