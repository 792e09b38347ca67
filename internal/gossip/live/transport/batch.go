package transport

import (
	"time"

	"dynagg/internal/gossip"
	"dynagg/internal/xrand"
)

// Batcher is the bulk plane of a transport: where Transport moves one
// boxed payload per call, a Batcher moves one encoded *batch* per call
// — a byte slice holding every message one shard addressed to one host
// group this tick — so a single syscall (or channel operation) serves
// a whole shard's wave. The live engine's ColumnarPopulation encodes
// straight from protocol columns into the batch body and decodes
// straight back into column deliveries; the transport never inspects
// the body beyond moving it.
//
// Groups partition the host population into contiguous [lo, hi)
// ranges, mirroring the TCP transport's listener groups; BatchGroups
// and BatchGroup expose that layout so callers can route by
// destination id and drain the groups they own.
//
// Accounting is per *message*, not per batch: SendBatch's msgs count
// is added to Sent on acceptance or to Dropped on loss, so Sent and
// Dropped stay comparable between the classic and columnar paths (and
// loss-rate assertions keep their meaning). A batch is carried by one
// frame, so one loss event drops all its messages at once — the
// per-message loss *rate* is preserved in expectation, the
// independence of individual losses is not (real radios burst-lose
// the same way).
//
// Implementations must be safe for concurrent use. The body passed to
// SendBatch is only valid for the duration of the call (the caller
// reuses its encode buffer); the body passed to a DrainBatch callback
// is only valid for the duration of the callback.
type Batcher interface {
	// BatchGroups returns the number of host groups, 0 if the
	// transport has no batch plane (see AsBatcher).
	BatchGroups() int
	// BatchGroup returns group g's host range [lo, hi).
	BatchGroup(g int) (lo, hi gossip.NodeID)
	// MaxBatchBody returns the largest body SendBatch accepts; larger
	// bodies are dropped whole.
	MaxBatchBody() int
	// SendBatch attempts to deliver a batch of msgs encoded messages
	// to group, without blocking. False means the whole batch is gone
	// (and its msgs counted in Dropped).
	SendBatch(group, tick, msgs int, body []byte) bool
	// DrainBatch invokes fn for every batch currently queued for the
	// group, in arrival order, without blocking for more. Only groups
	// the transport receives for locally yield batches.
	DrainBatch(group int, fn func(body []byte))
}

// AsBatcher reports whether t exposes a usable batch plane, unwrapping
// capability-forwarding layers: a Lossy injector is a Batcher exactly
// when its inner transport is one (loss is still injected — the
// injector forwards batches through its own drop/delay logic, never
// around it).
func AsBatcher(t Transport) (Batcher, bool) {
	b, ok := t.(Batcher)
	if !ok || b.BatchGroups() == 0 {
		return nil, false
	}
	return b, true
}

// batchItem is one queued batch: a pooled body buffer plus its message
// count (kept for drop accounting if the queue sheds it).
type batchItem struct {
	buf  *[]byte
	msgs int
}

// maxBatchHeader is the worst-case wire.Header size a batch frame
// spends on framing: version + kind bytes plus three maximal uvarints.
const maxBatchHeader = 2 + 3*5

// maxBatchPayload caps every batch plane's header plus body at the
// largest payload one IPv4 datagram can carry (65535 minus 8 UDP and
// 20 IP header bytes): a 64 KiB-class frame keeps each shard wave a
// few dozen batches, and chan and tcp runs batch identically.
const maxBatchPayload = 65507

// ---- Channel batch plane ----

// BatchGroups implements Batcher.
func (c *Channel) BatchGroups() int { return len(c.groups) }

// BatchGroup implements Batcher.
func (c *Channel) BatchGroup(g int) (lo, hi gossip.NodeID) {
	return c.groups[g].Lo, c.groups[g].Hi
}

// MaxBatchBody implements Batcher. The in-process transport has no
// physical ceiling; it uses the shared one so chan and tcp runs batch
// identically.
func (c *Channel) MaxBatchBody() int { return maxBatchPayload - maxBatchHeader }

// SendBatch implements Batcher: copy the body into a pooled buffer and
// enqueue it on the group's batch queue, non-blocking; overflow drops
// the whole batch, counted per message.
func (c *Channel) SendBatch(group, tick, msgs int, body []byte) bool {
	if c.closed.Load() || group < 0 || group >= len(c.batches) || len(body) > c.MaxBatchBody() {
		c.dropped.Add(int64(msgs))
		return false
	}
	bp := c.batchBufs.Get().(*[]byte)
	*bp = append((*bp)[:0], body...)
	select {
	case c.batches[group] <- batchItem{buf: bp, msgs: msgs}:
		c.sent.Add(int64(msgs))
		return true
	default:
		c.batchBufs.Put(bp)
		c.dropped.Add(int64(msgs))
		return false
	}
}

// DrainBatch implements Batcher.
func (c *Channel) DrainBatch(group int, fn func(body []byte)) {
	if group < 0 || group >= len(c.batches) {
		return
	}
	for {
		select {
		case it := <-c.batches[group]:
			fn(*it.buf)
			c.batchBufs.Put(it.buf)
		default:
			return
		}
	}
}

// ---- Lossy batch plane ----

// batcher returns the inner transport's batch plane, nil if it has
// none.
func (l *Lossy) batcher() Batcher {
	b, _ := l.T.(Batcher)
	return b
}

// BatchGroups implements Batcher: the inner transport's group count, 0
// when the inner transport has no batch plane (AsBatcher then reports
// the whole stack as batchless).
func (l *Lossy) BatchGroups() int {
	if b := l.batcher(); b != nil {
		return b.BatchGroups()
	}
	return 0
}

// BatchGroup implements Batcher.
func (l *Lossy) BatchGroup(g int) (lo, hi gossip.NodeID) { return l.batcher().BatchGroup(g) }

// MaxBatchBody implements Batcher.
func (l *Lossy) MaxBatchBody() int { return l.batcher().MaxBatchBody() }

// SendBatch implements Batcher: one loss draw per batch — a batch is
// one frame, and the injector models per-frame loss — so all msgs
// messages drop (or survive) together; the per-message drop *rate*
// still converges to P because the draw is independent of batch size.
func (l *Lossy) SendBatch(group, tick, msgs int, body []byte) bool {
	inner := l.batcher()
	if inner == nil {
		l.dropped.Add(int64(msgs))
		return false
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		l.dropped.Add(int64(msgs))
		return false
	}
	if l.rng == nil {
		l.rng = xrand.New(l.Seed)
	}
	drop := l.rng.Prob(l.P)
	var wait time.Duration
	if !drop && l.Delay > 0 {
		wait = l.Delay
		if l.Jitter > 0 {
			wait += time.Duration(l.rng.Float64() * float64(l.Jitter))
		}
		l.delayed.Add(1)
	}
	l.mu.Unlock()
	if drop {
		l.dropped.Add(int64(msgs))
		// On a stream transport the lost frame is a failed link:
		// sever the connection toward the destination group.
		lo, _ := inner.BatchGroup(group)
		l.killLink(lo)
		return false
	}
	if wait > 0 {
		// The caller reuses body after we return, so a delayed batch
		// needs its own copy.
		held := append([]byte(nil), body...)
		time.AfterFunc(wait, func() {
			defer l.delayed.Done()
			inner.SendBatch(group, tick, msgs, held)
		})
		return true
	}
	return inner.SendBatch(group, tick, msgs, body)
}

// DrainBatch implements Batcher: receive-side pass-through, like Drain.
func (l *Lossy) DrainBatch(group int, fn func(body []byte)) { l.batcher().DrainBatch(group, fn) }

// Compile-time wiring of the batch planes.
var (
	_ Batcher = (*Channel)(nil)
	_ Batcher = (*TCP)(nil)
	_ Batcher = (*Lossy)(nil)
)
