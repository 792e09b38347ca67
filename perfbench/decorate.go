package main

import (
	"net/http"
	"sync/atomic"

	"dynagg/internal/gossip"
	"dynagg/internal/gossip/live"
	"dynagg/internal/gossip/live/transport"
)

// Timing decorators over the layers' public interfaces. Each records
// one span per call; none changes what the wrapped value does. The
// layer prefix names the caller's layer: "protocol" when the round
// engine calls the kernels, "live" when the live engine does.

// tracedAgent wraps a gossip.ColumnarAgent.
type tracedAgent struct {
	gossip.ColumnarAgent
	rec   *recorder
	layer string
}

func (a *tracedAgent) BeginRange(rc *gossip.ColRound, lo, hi int) {
	s := span{name: a.layer + ".begin", start: a.rec.now(), key: int64(rc.Round), shard: int64(lo), n: int64(hi - lo)}
	a.ColumnarAgent.BeginRange(rc, lo, hi)
	a.rec.end(s)
}

func (a *tracedAgent) EmitRange(rc *gossip.ColRound, lo, hi int) {
	s := span{name: a.layer + ".emit", start: a.rec.now(), key: int64(rc.Round), shard: int64(lo)}
	before := len(rc.Out)
	a.ColumnarAgent.EmitRange(rc, lo, hi)
	s.n = int64(len(rc.Out) - before)
	a.rec.end(s)
}

func (a *tracedAgent) Deliver(rc *gossip.ColRound, msgs []gossip.ColMsg) {
	// The live engine calls Deliver only for a tick's self shares.
	name := a.layer + ".deliver"
	if a.layer == "live" {
		name = "live.self_deliver"
	}
	s := span{name: name, start: a.rec.now(), key: int64(rc.Round), n: int64(len(msgs))}
	a.ColumnarAgent.Deliver(rc, msgs)
	a.rec.end(s)
}

func (a *tracedAgent) EndRange(rc *gossip.ColRound, lo, hi int) {
	s := span{name: a.layer + ".end", start: a.rec.now(), key: int64(rc.Round), shard: int64(lo), n: int64(hi - lo)}
	a.ColumnarAgent.EndRange(rc, lo, hi)
	a.rec.end(s)
}

// tracedExchanger adds the push/pull kernel.
type tracedExchanger struct {
	*tracedAgent
	ex gossip.ColExchanger
}

func (x *tracedExchanger) ExchangePairs(rc *gossip.ColRound, pairs []gossip.Pair) {
	s := span{name: x.layer + ".exchange", start: x.rec.now(), key: int64(rc.Round), n: int64(len(pairs))}
	x.ex.ExchangePairs(rc, pairs)
	x.rec.end(s)
}

// traceAgent wraps a round-engine protocol, keeping its push/pull
// capability.
func traceAgent(a gossip.ColumnarAgent, rec *recorder) gossip.ColumnarAgent {
	ta := &tracedAgent{ColumnarAgent: a, rec: rec, layer: "protocol"}
	if ex, ok := a.(gossip.ColExchanger); ok {
		return &tracedExchanger{ta, ex}
	}
	return ta
}

// tracedLiveProto wraps a live.ColumnarProtocol. The per-record wire
// hooks pass through untimed: a clock read per record would cost more
// than the record.
type tracedLiveProto struct {
	*tracedAgent
	p live.ColumnarProtocol
}

func traceLiveProto(p live.ColumnarProtocol, rec *recorder) *tracedLiveProto {
	return &tracedLiveProto{&tracedAgent{ColumnarAgent: p, rec: rec, layer: "live"}, p}
}

func (l *tracedLiveProto) WireKind() uint8 { return l.p.WireKind() }

func (l *tracedLiveProto) AppendWire(dst []byte, m gossip.ColMsg) []byte {
	return l.p.AppendWire(dst, m)
}

func (l *tracedLiveProto) DeliverWire(to gossip.NodeID, src []byte) ([]byte, error) {
	return l.p.DeliverWire(to, src)
}

// tracedTransport wraps a transport.Transport and its batch plane.
// It forwards Unwrap, so transport.AsTCP (bootstrap) still finds the
// TCP transport underneath.
type tracedTransport struct {
	transport.Transport
	b   transport.Batcher // nil when the inner transport has no batch plane
	rec *recorder
	// bytes counts batch body bytes handed to SendBatch.
	bytes atomic.Int64
}

func traceTransport(t transport.Transport, rec *recorder) *tracedTransport {
	b, _ := transport.AsBatcher(t)
	return &tracedTransport{Transport: t, b: b, rec: rec}
}

func (t *tracedTransport) Unwrap() transport.Transport { return t.Transport }

func (t *tracedTransport) Send(from, to gossip.NodeID, tick int, payload any) bool {
	s := span{name: "transport.send", start: t.rec.now(), key: int64(tick), n: 1}
	ok := t.Transport.Send(from, to, tick, payload)
	t.rec.end(s)
	return ok
}

func (t *tracedTransport) BatchGroups() int {
	if t.b == nil {
		return 0
	}
	return t.b.BatchGroups()
}

func (t *tracedTransport) BatchGroup(g int) (lo, hi gossip.NodeID) { return t.b.BatchGroup(g) }
func (t *tracedTransport) MaxBatchBody() int                       { return t.b.MaxBatchBody() }

func (t *tracedTransport) SendBatch(group, tick, msgs int, body []byte) bool {
	s := span{name: "transport.send_batch", start: t.rec.now(), key: int64(tick), shard: int64(group), n: int64(msgs)}
	ok := t.b.SendBatch(group, tick, msgs, body)
	t.rec.end(s)
	t.bytes.Add(int64(len(body)))
	return ok
}

// DrainBatch times the whole drain, which includes the live engine's
// decode-and-fold callback; n counts the frames drained.
func (t *tracedTransport) DrainBatch(group int, fn func(body []byte)) {
	s := span{name: "transport.drain_batch", start: t.rec.now(), shard: int64(group)}
	t.b.DrainBatch(group, func(body []byte) {
		s.n++
		fn(body)
	})
	t.rec.end(s)
}

// tracedHandler wraps the gateway's http.Handler; key numbers the
// requests in arrival order.
type tracedHandler struct {
	h   http.Handler
	rec *recorder
	seq atomic.Int64
}

func (t *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s := span{name: "gateway.serve", start: t.rec.now(), key: t.seq.Add(1)}
	t.h.ServeHTTP(w, r)
	t.rec.end(s)
}
