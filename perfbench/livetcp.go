package main

import (
	"context"
	"fmt"
	"time"

	"dynagg/internal/env"
	"dynagg/internal/gossip"
	"dynagg/internal/gossip/live"
	"dynagg/internal/gossip/live/transport"
	"dynagg/internal/protocol/pushsumrevert"
)

// live-tcp-1m: the live engine end to end over real sockets. Columnar
// Push-Sum-Revert (λ=0.01) for 1,000,000 hosts in 2 loopback TCP batch
// groups, unpaced, ticked by one driver goroutine. The timed phase is a
// run of live.Engine.Run calls of liveChunk ticks each; a tick's time
// is its chunk's wall time over liveChunk.
const (
	liveHosts  = 1_000_000
	liveGroups = 2
	liveLambda = 0.01
	liveChunk  = 4
	// liveDrivers is the driver goroutine count (live.Config.Workers).
	// With a driver per group, the drivers and the TCP reader and
	// writer goroutines contend for 2 CPUs and tick times spread about
	// four times wider between runs than with one driver.
	liveDrivers = 1
	// liveQueue is the per-group frame queue: a columnar tick arrives
	// at each group as one burst of whole-shard batch frames, and the
	// default 256-frame queue sheds part of a million-host burst.
	liveQueue   = 1024
	liveMinRuns = 3
	// liveTol is the largest relative error of the mean estimate.
	liveTol = 0.01
)

// liveRig is one built live engine and the transport it owns.
type liveRig struct {
	eng *live.Engine
	tcp *transport.TCP
	tr  *tracedTransport // nil in an untraced run
}

func (r *liveRig) close() { r.tcp.Close() }

func buildLive(p params, values []float64, engSeed uint64) (*liveRig, error) {
	tcp, err := transport.NewTCP(
		transport.WithLoopbackGroups(liveHosts, liveGroups),
		transport.WithQueueCapacity(liveQueue),
	)
	if err != nil {
		return nil, fmt.Errorf("tcp transport: %w", err)
	}
	rig := &liveRig{tcp: tcp}
	var proto live.ColumnarProtocol = pushsumrevert.NewColumnar(values, pushsumrevert.Config{Lambda: liveLambda})
	var tr transport.Transport = tcp
	if p.rec != nil {
		proto = traceLiveProto(proto, p.rec)
		rig.tr = traceTransport(tcp, p.rec)
		tr = rig.tr
	}
	rig.eng, err = live.New(live.Config{
		Env: env.NewUniform(liveHosts), Population: live.NewColumnarPopulation(proto),
		Model: gossip.Push, Seed: engSeed, Ticks: liveChunk, Workers: liveDrivers, Transport: tr,
	})
	if err != nil {
		tcp.Close()
		return nil, fmt.Errorf("live engine: %w", err)
	}
	return rig, nil
}

func runLiveTCP1M(p params) (*report, error) {
	rep := &report{}
	ctx := context.Background()
	values := uniformValues(liveHosts, p.seed)
	engSeed := inputRand(p.seed, streamEngineSeed).Uint64()

	// A set-up builds the population and transport and runs one warm-up
	// chunk, which also dials the group connections.
	build := func() (*liveRig, error) {
		rig, err := buildLive(p, values, engSeed)
		if err != nil {
			return nil, err
		}
		if err := rig.eng.Run(ctx); err != nil {
			rig.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		return rig, nil
	}
	rig, err := timeSetup(rep, build)
	if err != nil {
		return nil, err
	}
	defer func() {
		if rig != nil {
			rig.close()
		}
	}()

	settle()
	if p.rec != nil {
		p.rec.reset()
	}
	m0 := snapMem()
	sent0, drop0 := rig.tcp.Sent(), rig.tcp.Dropped()
	ovf0, rec0 := rig.tcp.OverflowDrops(), rig.tcp.Reconnects()
	var chunks []time.Duration
	start := time.Now()
	for len(chunks) < liveMinRuns || time.Since(start) < p.seconds {
		var id, ts int64
		if p.rec != nil {
			id, ts = p.rec.open()
		}
		t0 := time.Now()
		if err := rig.eng.Run(ctx); err != nil {
			return nil, fmt.Errorf("timed run: %w", err)
		}
		chunks = append(chunks, time.Since(t0)/liveChunk)
		if p.rec != nil {
			p.rec.close("live.run", id, ts, int64(len(chunks)))
		}
	}
	m1 := snapMem()
	rep.peakRSS = peakRSSMB()
	ticks := len(chunks) * liveChunk
	rep.step = medianDur(chunks)

	sent, dropped := rig.tcp.Sent()-sent0, rig.tcp.Dropped()-drop0
	// On lossless loopback TCP a dropped message is a defect.
	rep.count(sent, nil)
	if dropped > 0 {
		rep.count(dropped, fmt.Errorf("%d messages dropped", dropped))
	}
	if err := checkMean(rig.eng.Estimates(), mean(values), liveTol); err != nil {
		rep.failAll(err)
	}
	ovf, reconnects := rig.tcp.OverflowDrops()-ovf0, rig.tcp.Reconnects()-rec0
	tracedBytes := int64(0)
	if rig.tr != nil {
		tracedBytes = rig.tr.bytes.Load()
	}
	rig.close()
	rig = nil
	if err := repeatSetups(p, rep, build, func(r *liveRig) error { r.close(); return nil }); err != nil {
		return nil, err
	}
	rep.display = []metric{
		{"setup_s", medianDur(rep.setups).Seconds(), "s"},
		{"tick_ms", ms(rep.step), "ms"},
		{"ticks", float64(ticks), "count"},
		{"dropped", float64(dropped), "count"},
	}
	if p.rec != nil {
		l := map[string]metric{}
		rep.layers = l
		n := float64(ticks)
		drivers := float64(liveDrivers)
		put(l, "traced.step_ms", ms(rep.step), "ms")
		runWall, _, _ := p.rec.total("live.run")
		var children time.Duration
		phase := func(metricName, span string) {
			d, _, _ := p.rec.total(span)
			children += d
			put(l, metricName, ms(d)/n, "ms")
		}
		phase("live.begin_ms", "live.begin")
		phase("live.drain_ms", "transport.drain_batch")
		phase("live.emit_ms", "live.emit")
		phase("live.self_deliver_ms", "live.self_deliver")
		phase("live.end_ms", "live.end")
		phase("live.send_ms", "transport.send_batch")
		put(l, "live.tick_self_ms", (ms(runWall)*drivers-ms(children))/n, "ms")

		drain, _, framesIn := p.rec.total("transport.drain_batch")
		sendD, frames, records := p.rec.total("transport.send_batch")
		if records > 0 {
			put(l, "live.fold_ns_per_msg", float64(drain.Nanoseconds())/float64(records), "ns")
			put(l, "transport.bytes_per_msg", float64(tracedBytes)/float64(records), "B")
		}
		put(l, "live.driver_busy_ratio", driverBusy(p.rec, runWall, drivers), "ratio")
		put(l, "transport.frames_per_tick", float64(frames)/n, "count")
		if frames > 0 {
			put(l, "transport.send_ns_per_frame", float64(sendD.Nanoseconds())/float64(frames), "ns")
		}
		if frames > 0 {
			put(l, "transport.delivered_ratio", float64(framesIn)/float64(frames), "ratio")
		}
		put(l, "transport.dropped", float64(dropped), "count")
		put(l, "transport.overflow", float64(ovf), "count")
		put(l, "transport.reconnects", float64(reconnects), "count")
		gcLayers(l, m0, m1)
	}
	return rep, nil
}

// driverBusy is the share of the drivers' run time spent between a
// driver's first BeginRange and its last EndRange of each run: below 1
// when one driver finishes its ticks early and the run waits on the
// other. Drivers are told apart by the host range of their BeginRange
// and EndRange calls.
func driverBusy(rec *recorder, runWall time.Duration, drivers float64) float64 {
	type window struct{ first, last int64 }
	busy := map[[2]int64]*window{} // (run id, driver lo) -> window
	for _, name := range []string{"live.begin", "live.end"} {
		for _, s := range rec.named(name) {
			k := [2]int64{s.parent, s.shard}
			w := busy[k]
			if w == nil {
				w = &window{s.start, s.end}
				busy[k] = w
			}
			w.first, w.last = min(w.first, s.start), max(w.last, s.end)
		}
	}
	var sum int64
	for _, w := range busy {
		sum += w.last - w.first
	}
	return float64(sum) / (drivers * float64(runWall.Nanoseconds()))
}
