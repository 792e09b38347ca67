// Package transport decouples the live gossip engine from the medium
// its messages travel over. The engine used to own a slice of buffered
// Go channels; that plumbing is now behind the Transport interface so
// the same protocol code can run over in-process channels (the test
// default, byte-for-byte the old behavior), over TCP streams carrying
// wire-encoded frames (loopback in one process, or a multi-process
// cluster joined by the Announce bootstrap), or over either with
// seeded loss injected by Lossy — the environment the paper's
// protocols are actually designed for.
//
// A Transport moves payloads between hosts identified by gossip.NodeID
// and owns the sent/dropped accounting. The channel transport decides
// a message's fate at a single station, so each message is counted
// exactly once (sent XOR dropped); a networked transport has two
// stations — the sender's hand-off to the kernel and the receiver's
// queue — and a message that clears the first but dies at the second
// appears in both counters (see TCP.Sent). Delivery is at-most-once
// and unordered, like the saturated radio of the paper's §II: the
// protocols must tolerate both, so the transport never retries and
// never blocks the sender.
package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dynagg/internal/gossip"
	"dynagg/internal/xrand"
)

// DefaultQueue is the per-host receive queue capacity used when a
// configuration leaves it zero — the same default the live engine has
// always used for its inboxes.
const DefaultQueue = 256

// Transport moves protocol payloads between live hosts. Self messages
// never reach a Transport: the live engine delivers a host's retained
// share in-process within the emitting tick (mass must not evaporate),
// so implementations only see cross-host traffic.
//
// Implementations must be safe for concurrent use: every host's driver
// goroutine calls Send and Drain without external synchronization.
type Transport interface {
	// Send attempts to deliver payload from one host to another at the
	// sender's local tick, without blocking. It reports whether the
	// message was accepted toward delivery; false means the message is
	// gone (and counted in Dropped).
	Send(from, to gossip.NodeID, tick int, payload any) bool
	// Drain invokes fn for every payload currently queued for the
	// host, in arrival order, without blocking for more.
	Drain(id gossip.NodeID, fn func(payload any))
	// Sent returns the number of messages accepted toward delivery.
	Sent() int64
	// Dropped returns the number of messages lost in transit.
	Dropped() int64
	// Close releases any resources (sockets, goroutines) the transport
	// holds. Send after Close drops.
	Close() error
}

// Channel is the in-process transport: one buffered Go channel per
// host, non-blocking sends, messages beyond capacity dropped as a
// saturated radio would drop them. This is the live engine's original
// inbox plumbing; it remains the default and keeps live runs free of
// sockets and codecs.
type Channel struct {
	// inbox is the per-host plane, built on the first Send or Drain: a
	// columnar run moves everything over the batch plane, and a
	// million buffered channels must not be paid for a plane that
	// never carries a message.
	inbox     []chan any
	inboxOnce sync.Once
	hosts     int
	capacity  int
	sent      atomic.Int64
	dropped   atomic.Int64
	closed    atomic.Bool

	// Batch plane (Batcher): the group partition a loopback TCP
	// transport would use, one batch queue per group, bodies held in
	// pooled buffers.
	groups    []Group
	batches   []chan batchItem
	batchBufs sync.Pool
}

var _ Transport = (*Channel)(nil)

// NewChannel returns a channel transport for hosts [0, hosts) with the
// given per-host queue capacity (0 means DefaultQueue). Its batch
// plane has a single group spanning every host; multi-shard columnar
// runs want NewChannelGroups.
func NewChannel(hosts, capacity int) *Channel {
	return NewChannelGroups(hosts, capacity, 1)
}

// NewChannelGroups is NewChannel with the batch plane split into
// `groups` contiguous host groups (clamped to [1, hosts]) — the
// in-process mirror of NewTCPLoopback's listener layout, so columnar
// shard counts can be exercised without sockets. capacity bounds both
// each host's inbox and each group's batch queue.
func NewChannelGroups(hosts, capacity, groups int) *Channel {
	if capacity <= 0 {
		capacity = DefaultQueue
	}
	if groups <= 0 {
		groups = 1
	}
	if groups > hosts && hosts > 0 {
		groups = hosts
	}
	c := &Channel{
		hosts:    hosts,
		capacity: capacity,
		batches:  make([]chan batchItem, groups),
	}
	for g := 0; g < groups; g++ {
		c.groups = append(c.groups, Group{
			Lo: gossip.NodeID(g * hosts / groups),
			Hi: gossip.NodeID((g + 1) * hosts / groups),
		})
		c.batches[g] = make(chan batchItem, capacity)
	}
	c.batchBufs.New = func() any {
		b := make([]byte, 0, 1024)
		return &b
	}
	return c
}

// inboxes returns the per-host inboxes, building them on first use.
func (c *Channel) inboxes() []chan any {
	c.inboxOnce.Do(func() {
		c.inbox = make([]chan any, c.hosts)
		for i := range c.inbox {
			c.inbox[i] = make(chan any, c.capacity)
		}
	})
	return c.inbox
}

// Send implements Transport: a non-blocking channel send.
func (c *Channel) Send(from, to gossip.NodeID, tick int, payload any) bool {
	if c.closed.Load() {
		c.dropped.Add(1)
		return false
	}
	select {
	case c.inboxes()[to] <- payload:
		c.sent.Add(1)
		return true
	default:
		c.dropped.Add(1)
		return false
	}
}

// Drain implements Transport: a non-blocking drain loop.
func (c *Channel) Drain(id gossip.NodeID, fn func(payload any)) {
	q := c.inboxes()[id]
	for {
		select {
		case p := <-q:
			fn(p)
		default:
			return
		}
	}
}

// Sent implements Transport.
func (c *Channel) Sent() int64 { return c.sent.Load() }

// Dropped implements Transport.
func (c *Channel) Dropped() int64 { return c.dropped.Load() }

// Close implements Transport; the channel transport holds no
// resources beyond garbage-collected memory, but subsequent Sends
// drop, per the interface contract.
func (c *Channel) Close() error {
	c.closed.Store(true)
	return nil
}

// Lossy layers message loss (and optionally delivery delay) over any
// Transport, making convergence-under-loss a first-class scenario
// instead of an emergent property of full inboxes:
//
//	lt := &transport.Lossy{T: transport.NewChannel(n, 0), P: 0.2, Seed: 9}
//
// Each Send is dropped with independent probability P; surviving
// messages are forwarded to the inner transport, after Delay(±Jitter)
// if one is configured. Dropped counts injector losses plus the inner
// transport's own.
type Lossy struct {
	// T is the underlying transport. Required.
	T Transport
	// P is the per-message drop probability in [0, 1].
	P float64
	// Seed drives the injector's private PRNG, so a lossy run is as
	// reproducible as its scheduling allows.
	Seed uint64
	// Delay postpones each surviving delivery; Jitter adds a uniform
	// random extra in [0, Jitter). Zero delivers inline.
	Delay  time.Duration
	Jitter time.Duration

	// mu guards the lazily-built rng AND the closed/delayed pair: a
	// delayed delivery is only ever registered while the injector is
	// open, so Close's Wait cannot race a WaitGroup Add.
	mu      sync.Mutex
	rng     *xrand.Rand
	closed  bool
	dropped atomic.Int64
	delayed sync.WaitGroup
}

var _ Transport = (*Lossy)(nil)

// Send implements Transport.
func (l *Lossy) Send(from, to gossip.NodeID, tick int, payload any) bool {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		l.dropped.Add(1)
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
		l.dropped.Add(1)
		l.killLink(to)
		return false
	}
	if wait > 0 {
		time.AfterFunc(wait, func() {
			defer l.delayed.Done()
			l.T.Send(from, to, tick, payload)
		})
		// In flight: it will be counted sent or dropped on arrival.
		return true
	}
	return l.T.Send(from, to, tick, payload)
}

// killLink translates a drop draw for a connection-oriented inner
// transport: a reliable stream has no silent per-message loss, so
// "this message was lost" becomes "the link carrying it failed" — the
// connection is severed and the reconnect window models the outage.
// Transports without connections (Channel) don't implement LinkKiller
// and keep independent per-message loss.
func (l *Lossy) killLink(to gossip.NodeID) {
	if lk, ok := l.T.(LinkKiller); ok {
		lk.KillLink(to)
	}
}

// KillLink implements LinkKiller by forwarding, so injector stacks
// keep the capability visible.
func (l *Lossy) KillLink(to gossip.NodeID) bool {
	if lk, ok := l.T.(LinkKiller); ok {
		return lk.KillLink(to)
	}
	return false
}

// Drain implements Transport.
func (l *Lossy) Drain(id gossip.NodeID, fn func(payload any)) { l.T.Drain(id, fn) }

// Sent implements Transport.
func (l *Lossy) Sent() int64 { return l.T.Sent() }

// Dropped implements Transport: injected drops plus the inner
// transport's.
func (l *Lossy) Dropped() int64 { return l.dropped.Load() + l.T.Dropped() }

// Close implements Transport: stops accepting messages, waits for
// already-scheduled delayed deliveries, then closes the inner
// transport.
func (l *Lossy) Close() error {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	l.delayed.Wait()
	return l.T.Close()
}

// Validate reports whether the injector is usable.
func (l *Lossy) Validate() error {
	if l.T == nil {
		return fmt.Errorf("transport: Lossy.T is nil")
	}
	if l.P < 0 || l.P > 1 {
		return fmt.Errorf("transport: Lossy.P %v outside [0,1]", l.P)
	}
	return nil
}
