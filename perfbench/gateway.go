package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"dynagg/internal/env"
	"dynagg/internal/gateway"
	"dynagg/internal/gossip"
	"dynagg/internal/gossip/live"
	"dynagg/internal/gossip/live/transport"
	"dynagg/internal/protocol/multi"
	"dynagg/internal/protocol/pushsumrevert"
	"dynagg/internal/protocol/sketchreset"
	"dynagg/internal/sketch"
)

// gateway-read: one process holds a 64-host worker population in 2 TCP
// spans and a gateway.Server observer, both at the default 20 ms pace,
// with 4 aggregates. Once every aggregate reads converged, one
// closed-loop keep-alive client sends GET /aggregate/{name}, round-robin
// over the names in a seeded order, for the timed phase.
const (
	gwWorkers  = 64
	gwSpans    = 2
	gwNames    = 4
	gwMinReads = 1000
	// gwConvergedTol is how close every aggregate must read once before
	// the timed phase starts: the gateway's own tests call an aggregate
	// converged within 30% of its truth.
	gwConvergedTol = 0.30
	// gwMeanTol bounds the relative error of the mean of one aggregate's
	// served averages over the timed phase. A single read carries the
	// observer's sampling noise (up to ±35% in 20 s runs), so reads are
	// checked against the host values' range and their mean against
	// the truth (observed within 0.7%).
	gwMeanTol = 0.05
	// gwConverge bounds the wait for convergence during set-up.
	gwConverge = 30 * time.Second
)

// workerPop is the gateway's worker population: one live engine and
// TCP transport per span.
type workerPop struct {
	seedAddr string
	tcps     []*transport.TCP
	cancel   context.CancelFunc
	wg       sync.WaitGroup
	mu       sync.Mutex
	err      error
}

// startWorkers builds and starts the worker population: gwWorkers hosts
// of the multi protocol, each registering names with values from
// value, split into gwSpans equal spans that bootstrap into one TCP
// membership. This function alone chooses the population's backend;
// hosts, spans, pace and names are fixed by its callers. wrap, when
// non-nil, decorates each span's transport.
func startWorkers(names []string, value func(name string, id int) float64, seeds []uint64,
	wrap func(transport.Transport) transport.Transport) (*workerPop, error) {
	ctx, cancel := context.WithCancel(context.Background())
	w := &workerPop{cancel: cancel}
	spans := make([]live.Span, gwSpans)
	for i := range spans {
		spans[i] = live.Span{Lo: gossip.NodeID(i * gwWorkers / gwSpans), Hi: gossip.NodeID((i + 1) * gwWorkers / gwSpans)}
		tcp, err := transport.NewTCP(transport.TCPConfig{
			Groups: []transport.Group{{Lo: spans[i].Lo, Hi: spans[i].Hi, Addr: "127.0.0.1:0"}},
			Local:  []int{0},
		})
		if err != nil {
			w.stop()
			return nil, fmt.Errorf("worker transport: %w", err)
		}
		w.tcps = append(w.tcps, tcp)
	}
	w.seedAddr = w.tcps[0].GroupAddr(0)
	for i, s := range spans {
		agents := make([]gossip.Agent, 0, int(s.Hi-s.Lo))
		for id := s.Lo; id < s.Hi; id++ {
			values := make(map[string]float64, len(names))
			for _, name := range names {
				values[name] = value(name, int(id))
			}
			agents = append(agents, multi.New(id, values,
				sketchreset.Config{Params: sketch.DefaultParams},
				pushsumrevert.Config{Lambda: gateway.DefaultLambda},
			))
		}
		var tr transport.Transport = w.tcps[i]
		if wrap != nil {
			tr = wrap(tr)
		}
		eng, err := live.New(live.Config{
			Population: live.NewAgentPopulation(agents),
			Env:        env.NewUniform(gwWorkers + 1), // slot gwWorkers is the observer
			Model:      gossip.Push,
			Seed:       seeds[i],
			Ticks:      live.Forever,
			TickEvery:  gateway.DefaultTickEvery,
			Workers:    1,
			Transport:  tr,
			Span:       s,
			Bootstrap: &live.Bootstrap{
				Seeds: []string{w.seedAddr}, Span: s, Total: gwWorkers,
				Retry: 10 * time.Millisecond, Timeout: gwConverge,
			},
		})
		if err != nil {
			w.stop()
			return nil, fmt.Errorf("worker engine: %w", err)
		}
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			if err := eng.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
				w.mu.Lock()
				w.err = err
				w.mu.Unlock()
			}
		}()
	}
	return w, nil
}

// stop cancels the engines, waits for them, closes the transports and
// returns the first engine error.
func (w *workerPop) stop() error {
	w.cancel()
	w.wg.Wait()
	for _, t := range w.tcps {
		t.Close()
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

func (w *workerPop) counters() (sent, dropped, overflow, reconnects int64) {
	for _, t := range w.tcps {
		sent += t.Sent()
		dropped += t.Dropped()
		overflow += t.OverflowDrops()
		reconnects += t.Reconnects()
	}
	return
}

// gwRig is a running worker population, gateway and HTTP server.
type gwRig struct {
	workers *workerPop
	gw      *gateway.Server
	cancel  context.CancelFunc
	hs      *http.Server
	url     string
}

func (r *gwRig) stop() error {
	r.hs.Close()
	r.cancel()
	r.gw.Wait()
	r.gw.Close()
	return r.workers.stop()
}

// aggregateRead is the part of the gateway's read body the check
// needs.
type aggregateRead struct {
	Average float64 `json:"average"`
}

func startGateway(p params, names []string, value func(string, int) float64, h *tracedHandler) (*gwRig, error) {
	rng := inputRand(p.seed, streamEngineSeed)
	seeds := []uint64{rng.Uint64(), rng.Uint64()}
	var wrap func(transport.Transport) transport.Transport
	if p.rec != nil {
		wrap = func(t transport.Transport) transport.Transport { return traceTransport(t, p.rec) }
	}
	workers, err := startWorkers(names, value, seeds, wrap)
	if err != nil {
		return nil, err
	}
	gw, err := gateway.New(gateway.Config{
		Workers: gwWorkers, Seeds: []string{workers.seedAddr}, Aggregates: names,
		Seed: rng.Uint64(), Replace: true, BootstrapTimeout: gwConverge,
	})
	if err != nil {
		workers.stop()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	rig := &gwRig{workers: workers, gw: gw, cancel: cancel, hs: &http.Server{}}
	if err := gw.Start(ctx); err != nil {
		rig.stop()
		return nil, fmt.Errorf("gateway bootstrap: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		rig.stop()
		return nil, err
	}
	var handler http.Handler = gw.Handler()
	if h != nil {
		h.h = handler
		handler = h
	}
	rig.hs.Handler = handler
	go rig.hs.Serve(ln)
	rig.url = "http://" + ln.Addr().String() + "/aggregate/"
	return rig, nil
}

// readOnce sends one GET and returns the served average.
func readOnce(c *http.Client, url string) (float64, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("status %d", resp.StatusCode)
	}
	var a aggregateRead
	if err := json.Unmarshal(body, &a); err != nil {
		return 0, err
	}
	return a.Average, nil
}

// waitConverged polls every aggregate until each reads within
// tolerance of its truth.
func waitConverged(c *http.Client, url string, names []string, truth map[string]float64) error {
	deadline := time.Now().Add(gwConverge)
	for _, name := range names {
		for {
			avg, err := readOnce(c, url+name)
			if err == nil && checkAverage(avg, truth[name], gwConvergedTol) == nil {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("aggregate %q did not converge: %v", name, err)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}

func runGatewayRead(p params) (*report, error) {
	rep := &report{}
	// Inputs: the aggregate names, and with them every host's value
	// (gateway.DemoValue of name and host), and the request order.
	nameRng := inputRand(p.seed, streamNames)
	names := make([]string, gwNames)
	truth := make(map[string]float64, gwNames)
	for i := range names {
		names[i] = fmt.Sprintf("agg-%08x", nameRng.Uint32())
		truth[names[i]] = gateway.DemoMean(names[i], gwWorkers)
	}
	order := inputRand(p.seed, streamOrder).Perm(gwNames)
	reads := make([]aggReads, gwNames) // in request order
	for i, k := range order {
		reads[i] = newAggReads(names[k], gwWorkers, truth[names[k]])
	}

	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	var handler *tracedHandler
	if p.rec != nil {
		handler = &tracedHandler{rec: p.rec}
	}
	// A set-up starts the workers, the gateway and its HTTP server and
	// waits until every aggregate reads converged.
	build := func() (*gwRig, error) {
		client.CloseIdleConnections()
		rig, err := startGateway(p, names, gateway.DemoValue, handler)
		if err != nil {
			return nil, err
		}
		if err := waitConverged(client, rig.url, names, truth); err != nil {
			rig.stop()
			return nil, err
		}
		return rig, nil
	}
	rig, err := timeSetup(rep, build)
	if err != nil {
		return nil, err
	}

	lats := newLatHist()
	settle()
	if p.rec != nil {
		p.rec.reset()
	}
	m0 := snapMem()
	sent0, drop0, ovf0, rc0 := rig.workers.counters()
	start := time.Now()
	for i := 0; lats.n < gwMinReads || time.Since(start) < p.seconds; i++ {
		agg := &reads[i%gwNames]
		var id, ts int64
		if p.rec != nil {
			id, ts = p.rec.open()
		}
		t0 := time.Now()
		avg, err := readOnce(client, rig.url+agg.name)
		lats.add(time.Since(t0))
		if p.rec != nil {
			p.rec.close("client.get", id, ts, int64(i))
		}
		if err == nil {
			err = agg.add(avg)
		}
		rep.count(1, err)
	}
	elapsed := time.Since(start)
	for _, agg := range reads {
		if err := agg.check(gwMeanTol); err != nil {
			rep.failAll(err)
		}
	}
	m1 := snapMem()
	rep.peakRSS = peakRSSMB()
	sent1, drop1, ovf1, rc1 := rig.workers.counters()
	if err := rig.stop(); err != nil {
		return nil, fmt.Errorf("worker engine: %w", err)
	}
	if err := repeatSetups(p, rep, build, (*gwRig).stop); err != nil {
		return nil, err
	}
	rep.step = lats.quantile(0.5)

	n := float64(lats.n)
	p99 := lats.quantile(0.99)
	rep.display = []metric{
		{"setup_s", medianDur(rep.setups).Seconds(), "s"},
		{"read_p50_us", us(rep.step), "us"},
		{"reads_per_s", n / elapsed.Seconds(), "1/s"},
		{"read_p99_us", us(p99), "us"},
		{"reads", n, "count"},
	}
	if p.rec != nil {
		l := map[string]metric{}
		rep.layers = l
		put(l, "traced.step_ms", ms(rep.step), "ms")
		serve := p.rec.named("gateway.serve")
		handlerD := make([]time.Duration, 0, len(serve))
		inside := make(map[int64]time.Duration, len(serve))
		for _, s := range serve {
			handlerD = append(handlerD, s.dur())
			inside[s.parent] += s.dur()
		}
		var stack []time.Duration
		for _, s := range p.rec.named("client.get") {
			stack = append(stack, s.dur()-inside[s.id])
		}
		put(l, "gateway.handler_p50_us", us(medianDur(handlerD)), "us")
		put(l, "gateway.handler_p99_us", us(quantileDur(handlerD, 0.99)), "us")
		put(l, "gateway.stack_p50_us", us(medianDur(stack)), "us")
		put(l, "gateway.allocs_per_read", float64(m1.mallocs-m0.mallocs)/n, "count")
		put(l, "gateway.bytes_per_read", float64(m1.totalAlloc-m0.totalAlloc)/n, "B")
		put(l, "gateway.read_p99_us", us(p99), "us")
		put(l, "gateway.read_samples", n, "count")
		put(l, "transport.worker_msgs_per_s", float64(sent1-sent0)/elapsed.Seconds(), "1/s")
		put(l, "transport.dropped", float64(drop1-drop0), "count")
		put(l, "transport.overflow", float64(ovf1-ovf0), "count")
		put(l, "transport.reconnects", float64(rc1-rc0), "count")
		gcLayers(l, m0, m1)
	}
	return rep, nil
}
