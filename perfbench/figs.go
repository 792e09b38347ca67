package main

import (
	"fmt"
	"time"

	"dynagg/internal/experiments"
	"dynagg/internal/gossip"
)

// paper-figs: the paper's evaluation regenerated, pass after pass.
// One pass is Figures 8, 9, 10a and 10b at experiments.Default()
// scale (10,000 hosts, 60 rounds, failure at round 20) on the columnar
// sharded engine, plus Figure 11's averaging and summation on trace
// dataset 1. One operation is one figure.

// figure is one figure driver and the property it must show.
type figure struct {
	name  string
	run   func(sc experiments.Scale) experiments.Result
	check func(experiments.Result) error
}

// figTraceDataset is the contact-trace dataset of Figure 11.
const figTraceDataset = 1

var paperFigures = []figure{
	{"fig8", experiments.Fig8, checkFig8},
	{"fig9", experiments.Fig9, checkFig9},
	{"fig10a", experiments.Fig10a, checkFig10a},
	{"fig10b", experiments.Fig10b, checkFig10b},
	{"fig11avg", func(sc experiments.Scale) experiments.Result {
		return experiments.Fig11Avg(figTraceDataset, sc.Seed)
	}, checkFig11Avg},
	{"fig11sum", func(sc experiments.Scale) experiments.Result {
		return experiments.Fig11Sum(figTraceDataset, sc.Seed)
	}, checkFig11Sum},
}

// figWarmupHosts sizes the set-up pass: Figures 8 to 10b at a tenth of
// the timed scale, which loads the code and grows the heap.
const figWarmupHosts = 1000

func figScale(seed uint64, hosts int) experiments.Scale {
	sc := experiments.Default()
	sc.Seed = inputRand(seed, streamEngineSeed).Uint64()
	sc.Columnar = true
	sc.Workers = gossip.DefaultWorkers()
	if hosts > 0 {
		sc.N = hosts
	}
	return sc
}

func runPaperFigs(p params) (*report, error) {
	rep := &report{}
	warm := figScale(p.seed, figWarmupHosts)
	build := func() (struct{}, error) {
		for _, f := range paperFigures[:4] {
			f.run(warm)
		}
		return struct{}{}, nil
	}
	if _, err := timeSetup(rep, build); err != nil {
		return nil, err
	}

	sc := figScale(p.seed, 0)
	perFig := make(map[string][]time.Duration)
	passes := 0
	var allocMB []float64
	m0 := snapMem()
	start := time.Now()
	for passes == 0 || time.Since(start) < p.seconds {
		settle()
		a0 := snapMem().totalAlloc
		for _, f := range paperFigures {
			var id, ts int64
			if p.rec != nil {
				id, ts = p.rec.open()
			}
			f0 := time.Now()
			res := f.run(sc)
			perFig[f.name] = append(perFig[f.name], time.Since(f0))
			if p.rec != nil {
				p.rec.close("experiments."+f.name, id, ts, int64(passes))
			}
			err := f.check(res)
			if err != nil {
				err = fmt.Errorf("%s: %w", f.name, err)
			}
			rep.count(1, err)
		}
		passes++
		allocMB = append(allocMB, float64(snapMem().totalAlloc-a0)/(1<<20))
	}
	m1 := snapMem()
	rep.peakRSS = peakRSSMB()
	// A pass's time is the sum of each figure's median: one slow figure
	// in one pass does not move it.
	for _, f := range paperFigures {
		rep.step += medianDur(perFig[f.name])
	}
	if err := repeatSetups(p, rep, build, func(struct{}) error { return nil }); err != nil {
		return nil, err
	}

	rep.display = []metric{
		{"setup_s", medianDur(rep.setups).Seconds(), "s"},
		{"suite_s", rep.step.Seconds(), "s"},
		{"passes", float64(passes), "count"},
	}
	for _, f := range paperFigures {
		rep.display = append(rep.display, metric{f.name + "_ms", ms(medianDur(perFig[f.name])), "ms"})
	}
	if p.rec != nil {
		rep.layers = map[string]metric{}
		put(rep.layers, "traced.step_ms", ms(rep.step), "ms")
		for _, f := range paperFigures {
			put(rep.layers, "experiments."+f.name+"_ms", ms(medianDur(perFig[f.name])), "ms")
		}
		put(rep.layers, "experiments.alloc_mb", mean(allocMB), "MB")
		gcLayers(rep.layers, m0, m1)
		rounds, msgs, mallocs, err := probeFigureEngines(sc, p.rec)
		if err != nil {
			return nil, err
		}
		putEngineLayers(rep.layers, p.rec, float64(rounds), sc.Workers)
		put(rep.layers, "gossip.msgs_per_round", float64(msgs)/float64(rounds), "count")
		put(rep.layers, "gossip.allocs_per_round", float64(mallocs)/float64(rounds), "count")
	}
	return rep, nil
}
