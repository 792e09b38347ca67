// Option-style construction: the option constructors below compose the
// transport knobs — group layout, queue depths, framing, reconnect
// pacing, loss, delay, WAN profiles — uniformly, so call sites read as
// a configuration sentence:
//
//	tr, err := transport.NewTCP(
//		transport.WithLoopbackGroups(1_000_000, 8),
//		transport.WithQueueCapacity(1024))
//	lt, err := transport.NewLossy(tr, transport.WithLoss(0.2), transport.WithLossSeed(12))
//
// A full TCPConfig still satisfies TCPOption (field-wise overlay), so
// pre-options call sites — NewTCP(cfg) — keep compiling unchanged, and
// the Lossy struct fields stay exported for the same reason.
package transport

import (
	"fmt"
	"time"

	"dynagg/internal/gossip"
)

// TCPOption configures NewTCP. Options apply in argument order; later
// options override earlier ones.
type TCPOption interface{ applyTCP(*TCPConfig) }

// tcpOptionFunc adapts a function to TCPOption.
type tcpOptionFunc func(*TCPConfig)

func (f tcpOptionFunc) applyTCP(c *TCPConfig) { f(c) }

// applyTCP gives TCPConfig the same one-big-option role for NewTCP.
func (c TCPConfig) applyTCP(dst *TCPConfig) {
	if c.Groups != nil {
		dst.Groups = c.Groups
	}
	if c.Local != nil {
		dst.Local = c.Local
	}
	if c.QueueCapacity != 0 {
		dst.QueueCapacity = c.QueueCapacity
	}
	if c.MaxFrame != 0 {
		dst.MaxFrame = c.MaxFrame
	}
	if c.DialTimeout != 0 {
		dst.DialTimeout = c.DialTimeout
	}
	if c.BackoffMin != 0 {
		dst.BackoffMin = c.BackoffMin
	}
	if c.BackoffMax != 0 {
		dst.BackoffMax = c.BackoffMax
	}
}

// WithGroups sets the population partition (non-empty, non-overlapping,
// sorted by Lo), replacing any earlier layout.
func WithGroups(groups ...Group) TCPOption {
	return tcpOptionFunc(func(c *TCPConfig) { c.Groups = groups })
}

// WithLocal lists the group indices this process listens for.
func WithLocal(local ...int) TCPOption {
	return tcpOptionFunc(func(c *TCPConfig) { c.Local = local })
}

// WithLoopbackGroups lays hosts [0, hosts) out as `groups` contiguous
// local groups (clamped to [1, hosts]) on ephemeral loopback ports —
// the single-process layout NewTCPLoopback builds, as a composable
// option.
func WithLoopbackGroups(hosts, groups int) TCPOption {
	if groups <= 0 {
		groups = 1
	}
	if groups > hosts {
		groups = hosts
	}
	return tcpOptionFunc(func(c *TCPConfig) {
		c.Groups, c.Local = make([]Group, 0, groups), make([]int, 0, groups)
		for g := 0; g < groups; g++ {
			c.Groups = append(c.Groups, Group{
				Lo:   gossip.NodeID(g * hosts / groups),
				Hi:   gossip.NodeID((g + 1) * hosts / groups),
				Addr: "127.0.0.1:0",
			})
			c.Local = append(c.Local, g)
		}
	})
}

// WithQueueCapacity bounds each local host's and group's receive queue
// and each peer group's send queue; 0 keeps DefaultQueue.
func WithQueueCapacity(n int) TCPOption {
	return tcpOptionFunc(func(c *TCPConfig) { c.QueueCapacity = n })
}

// WithMaxFrame bounds the TCP transport's frame size, send and
// receive; 0 keeps DefaultMaxFrame.
func WithMaxFrame(n int) TCPOption {
	return tcpOptionFunc(func(c *TCPConfig) { c.MaxFrame = n })
}

// WithDialTimeout bounds each connection attempt (and the announce
// round-trip of the bootstrap protocol); 0 keeps DefaultDialTimeout.
func WithDialTimeout(d time.Duration) TCPOption {
	return tcpOptionFunc(func(c *TCPConfig) { c.DialTimeout = d })
}

// WithReconnectBackoff sets the exponential redial pacing after a
// broken connection: the first retry waits min, doubling up to max.
// Zeros keep DefaultBackoffMin / DefaultBackoffMax.
func WithReconnectBackoff(min, max time.Duration) TCPOption {
	return tcpOptionFunc(func(c *TCPConfig) {
		c.BackoffMin = min
		c.BackoffMax = max
	})
}

// LossyOption configures NewLossy.
type LossyOption func(*Lossy)

// WithLoss sets the per-send drop probability in [0, 1].
func WithLoss(p float64) LossyOption { return func(l *Lossy) { l.P = p } }

// WithLossSeed seeds the injector's private PRNG.
func WithLossSeed(seed uint64) LossyOption { return func(l *Lossy) { l.Seed = seed } }

// WithDelay postpones each surviving delivery by delay plus a uniform
// random extra in [0, jitter).
func WithDelay(delay, jitter time.Duration) LossyOption {
	return func(l *Lossy) {
		l.Delay = delay
		l.Jitter = jitter
	}
}

// WithProfile applies a canned WAN preset — ProfileLAN, Profile3G,
// ProfileSat, or anything ProfileByName resolves — setting loss,
// delay, and jitter in one option.
func WithProfile(p Profile) LossyOption {
	return func(l *Lossy) {
		l.P = p.Loss
		l.Delay = p.Delay
		l.Jitter = p.Jitter
	}
}

// NewLossy layers a validated loss/delay injector over inner. With no
// options it forwards everything — loss comes from WithLoss or
// WithProfile.
func NewLossy(inner Transport, opts ...LossyOption) (*Lossy, error) {
	if inner == nil {
		return nil, fmt.Errorf("transport: NewLossy inner transport is nil")
	}
	l := &Lossy{T: inner}
	for _, opt := range opts {
		opt(l)
	}
	if err := l.Validate(); err != nil {
		return nil, err
	}
	return l, nil
}
