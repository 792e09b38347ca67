package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dynagg/internal/backoff"
	"dynagg/internal/gossip"
	"dynagg/internal/wire"
)

// TCP defaults. MaxFrame leaves room for the largest batch frame plus
// slack; the backoff range keeps a dead peer from being hammered while
// letting a restarted one be reacquired within a couple of ticks.
const (
	DefaultMaxFrame    = 1 << 20
	DefaultDialTimeout = 2 * time.Second
	DefaultBackoffMin  = 20 * time.Millisecond
	DefaultBackoffMax  = 2 * time.Second

	// tcpWriteDeadline bounds one coalesced write burst. A peer that
	// stops reading stalls only its own writer goroutine, and only this
	// long — then the connection dies and its traffic becomes drops,
	// which is what a jammed link is.
	tcpWriteDeadline = 5 * time.Second

	// frameSlack is the room Send reserves ahead of the envelope for
	// the frame's uvarint length, written backwards once the payload
	// size is known — one encode pass, no copy.
	frameSlack = binary.MaxVarintLen32
)

// ErrSpanConflict reports a membership registration that contradicts
// the table: the same span at a different address, or a range
// overlapping an existing group. Bootstrap treats it as fatal — two
// processes claiming one host range is a deployment bug, not a
// transient.
var ErrSpanConflict = errors.New("transport: span conflict")

// LinkKiller is the failure-injection hook a connection-oriented
// transport exposes: where a message-at-a-time medium loses one
// message, a stream loses the *link*. Lossy uses it to translate its
// drop draws — a draw that would discard one message instead kills the
// connection carrying the stream, and reconnect-with-backoff models
// the outage window.
type LinkKiller interface {
	// KillLink severs the cached connection toward the group owning
	// host `to`, reporting whether a live connection was actually cut.
	// The next send toward that group redials.
	KillLink(to gossip.NodeID) bool
}

// Unwrapper is implemented by transport layers that forward to an
// inner transport (fault injectors, filters). AsTCP follows Unwrap
// chains so capability discovery works through any stack of wrappers.
type Unwrapper interface {
	// Unwrap returns the wrapped transport.
	Unwrap() Transport
}

// Group is one contiguous slice [Lo, Hi) of the host population that
// shares a single listener — the paper's picture of many sensors
// behind one radio. A process listens for the groups it owns and
// addresses the rest by Addr.
type Group struct {
	Lo, Hi gossip.NodeID
	// Addr is the group's TCP address. For a local group it is the
	// bind address ("127.0.0.1:0" picks an ephemeral port; read the
	// outcome with GroupAddr). For a remote group it may be left empty
	// at construction and supplied later via SetGroupAddr or
	// RegisterGroup — messages to a group with no known address are
	// dropped, exactly like transmissions to a host that is out of
	// range.
	Addr string
}

// TCPConfig assembles a TCP transport.
type TCPConfig struct {
	// Groups partitions the population: non-empty, non-overlapping,
	// sorted by Lo. Under bootstrap a process starts with only its own
	// group and learns the rest via RegisterGroup.
	Groups []Group
	// Local lists the indices into Groups this process listens for.
	Local []int
	// QueueCapacity bounds each local host's receive queue, each local
	// group's batch queue, and each peer group's send queue (0 means
	// DefaultQueue).
	QueueCapacity int
	// MaxFrame bounds frame size both ways (0 means DefaultMaxFrame).
	// Oversized sends drop; an oversized *claim* on a received stream
	// is corruption and kills the connection.
	MaxFrame int
	// DialTimeout bounds each connection attempt (0 means
	// DefaultDialTimeout).
	DialTimeout time.Duration
	// BackoffMin/BackoffMax pace redials after a broken connection:
	// first retry after BackoffMin, doubling to BackoffMax (zeros mean
	// the defaults).
	BackoffMin time.Duration
	BackoffMax time.Duration
}

// TCP carries self-describing wire envelopes — the internal/wire
// binary encodings behind the paper's §IV-B bandwidth argument,
// prefixed with a header (protocol kind, destination, sender, tick) —
// and columnar batch frames over reliable streams: each message is one
// uvarint-length-prefixed frame (see internal/wire frame.go), so the
// byte stream keeps the message boundaries.
//
// Connections are cached per peer group and dialed lazily by a
// dedicated writer goroutine per group, which coalesces every queued
// frame into one buffered write burst. A broken connection is not an
// error, it is the medium: frames sent into the outage window drop
// (counted), and the writer redials with exponential backoff. Loss
// injection composes the same way — Lossy over TCP converts drop draws
// into KillLink, so "20% loss" reads as "links fail this often", with
// the reconnect window, not a silent per-datagram coin flip, as the
// outage.
//
// The group table is mutable: RegisterGroup (fed by the Announce
// bootstrap handshake) inserts peer groups discovered at run
// time. Registration must finish before a Population binds — batch
// group indices shift as groups are inserted.
type TCP struct {
	cfg TCPConfig

	// view is the immutable snapshot of the group table; RegisterGroup
	// swaps in a rebuilt copy under mu. Hot paths load once per call.
	view atomic.Pointer[tcpView]

	// locals is keyed by group Lo and frozen after construction.
	locals map[gossip.NodeID]*tcpLocal

	// mu guards table mutation and the accepted-connection registry.
	mu       sync.Mutex
	accepted map[net.Conn]struct{}

	// hostQ is the per-host inbox plane, built lazily on first use
	// (reader delivery or Drain): a million-host columnar run moves
	// everything over the batch plane and must not pay for a buffered
	// channel per host.
	hostQ     atomic.Pointer[map[gossip.NodeID]chan any]
	hostQOnce sync.Once

	bufs    sync.Pool
	sent    atomic.Int64
	dropped atomic.Int64
	kills   atomic.Int64
	// reconnects counts successful redials after a connection died;
	// overflow counts messages shed because a bounded queue was full
	// (sender outbox, receiver batch queue, or receiver host inbox).
	// Both are subsets of the stories dropped tells, kept separately
	// so chaos runs can tell link failure from backpressure on
	// /statusz.
	reconnects atomic.Int64
	overflow   atomic.Int64
	closed     atomic.Bool
	done       chan struct{}
	wg         sync.WaitGroup

	// announceAt records the last direct announce heard per span
	// (keyed by Lo, value unix nanos) — the freshness a seed reports in
	// the membership age section so non-seeds can run failure detectors
	// on relayed knowledge.
	announceAt sync.Map

	// spanObs, when set, receives one call per liveness observation
	// (direct announces and relayed membership ages). See
	// SetSpanObserver.
	spanObs atomic.Pointer[SpanObserver]
}

// SpanObserver receives span liveness observations from the membership
// plane: one call per direct announce heard on a listener (age 0) and
// one per relayed membership entry whose seed reported a freshness age
// (elapsed time since the seed last heard that span announce).
// Entries with unknown freshness are not delivered. Observers are
// called from transport reader goroutines and must be fast and safe
// for concurrent use — a health detector's Observe is the intended
// consumer.
type SpanObserver func(lo, hi gossip.NodeID, addr string, age time.Duration)

var (
	_ Transport  = (*TCP)(nil)
	_ Batcher    = (*TCP)(nil)
	_ LinkKiller = (*TCP)(nil)
)

// tcpView is one immutable snapshot of the membership table: groups
// sorted by Lo, peers parallel to them.
type tcpView struct {
	groups []Group
	peers  []*tcpPeer
}

// groupOf locates the group owning a host, or -1.
func (v *tcpView) groupOf(id gossip.NodeID) int {
	gs := v.groups
	i := sort.Search(len(gs), func(i int) bool { return gs[i].Hi > id })
	if i < len(gs) && id >= gs[i].Lo {
		return i
	}
	return -1
}

// tcpLocal is one listening group: its host span, its listener, and
// its batch receive queue.
type tcpLocal struct {
	lo, hi gossip.NodeID
	ln     net.Listener
	batchQ chan batchItem
}

// tcpPeer is the send side toward one group: its (mutable) address,
// its outbox, and the cached connection its writer goroutine owns.
type tcpPeer struct {
	t      *TCP
	addr   atomic.Pointer[string]
	outbox chan outFrame
	// conn mirrors the writer's current connection so KillLink and
	// Close can sever it from outside; only the writer replaces it.
	conn atomic.Pointer[net.Conn]
}

// outFrame is one queued frame: a pooled buffer whose bytes from off
// onward are the complete length-prefixed frame, plus the message
// count it carries (for drop accounting).
type outFrame struct {
	buf  *[]byte
	off  int
	msgs int
}

// NewTCP assembles the configuration from options; a full TCPConfig
// works as one big option:
//
//	NewTCP(cfg)
//	NewTCP(transport.WithLoopbackGroups(1024, 8), transport.WithMaxFrame(1<<16))
//
// then binds one listener per local group and starts its acceptor and
// one writer per known group. Peer groups whose Addr is unknown (or
// undiscovered — see RegisterGroup/Announce) drop traffic until their
// address is learned, exactly like an out-of-range radio.
func NewTCP(opts ...TCPOption) (*TCP, error) {
	var cfg TCPConfig
	for _, opt := range opts {
		opt.applyTCP(&cfg)
	}
	return newTCP(cfg)
}

// NewTCPLoopback is the single-process convenience constructor: hosts
// [0, hosts) split into `groups` contiguous groups, every group local,
// each listening on an ephemeral loopback port. All cross-host traffic
// then travels through real kernel sockets.
func NewTCPLoopback(hosts, groups, queueCapacity int) (*TCP, error) {
	if hosts <= 0 {
		return nil, fmt.Errorf("transport: hosts must be positive, got %d", hosts)
	}
	return NewTCP(WithLoopbackGroups(hosts, groups), WithQueueCapacity(queueCapacity))
}

func newTCP(cfg TCPConfig) (*TCP, error) {
	if len(cfg.Groups) == 0 {
		return nil, fmt.Errorf("transport: TCPConfig.Groups is empty")
	}
	if len(cfg.Local) == 0 {
		return nil, fmt.Errorf("transport: TCPConfig.Local is empty")
	}
	for i, g := range cfg.Groups {
		if g.Lo >= g.Hi {
			return nil, fmt.Errorf("transport: group %d range [%d,%d) is empty", i, g.Lo, g.Hi)
		}
		if i > 0 && g.Lo < cfg.Groups[i-1].Hi {
			return nil, fmt.Errorf("transport: group %d overlaps or is unsorted", i)
		}
	}
	if cfg.QueueCapacity <= 0 {
		cfg.QueueCapacity = DefaultQueue
	}
	if cfg.MaxFrame <= 0 {
		cfg.MaxFrame = DefaultMaxFrame
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = DefaultDialTimeout
	}
	if cfg.BackoffMin <= 0 {
		cfg.BackoffMin = DefaultBackoffMin
	}
	if cfg.BackoffMax < cfg.BackoffMin {
		cfg.BackoffMax = DefaultBackoffMax
		if cfg.BackoffMax < cfg.BackoffMin {
			cfg.BackoffMax = cfg.BackoffMin
		}
	}
	t := &TCP{
		cfg:      cfg,
		locals:   make(map[gossip.NodeID]*tcpLocal, len(cfg.Local)),
		accepted: make(map[net.Conn]struct{}),
		done:     make(chan struct{}),
	}
	t.bufs.New = func() any {
		b := make([]byte, 0, 512)
		return &b
	}
	addrs := make([]string, len(cfg.Groups))
	for i, g := range cfg.Groups {
		addrs[i] = g.Addr
	}
	closeListeners := func() {
		for _, l := range t.locals {
			l.ln.Close()
		}
	}
	for _, gi := range cfg.Local {
		if gi < 0 || gi >= len(cfg.Groups) {
			closeListeners()
			return nil, fmt.Errorf("transport: local group index %d out of range", gi)
		}
		g := cfg.Groups[gi]
		if g.Addr == "" {
			closeListeners()
			return nil, fmt.Errorf("transport: local group %d needs a bind address", gi)
		}
		ln, err := net.Listen("tcp", g.Addr)
		if err != nil {
			closeListeners()
			return nil, fmt.Errorf("transport: bind group %d: %w", gi, err)
		}
		// Listen resolved the port (":0" ephemeral); record the real
		// address so peers can be told it.
		addrs[gi] = ln.Addr().String()
		t.locals[g.Lo] = &tcpLocal{
			lo: g.Lo, hi: g.Hi, ln: ln,
			batchQ: make(chan batchItem, cfg.QueueCapacity),
		}
	}
	v := &tcpView{groups: append([]Group(nil), cfg.Groups...)}
	for i := range v.groups {
		v.groups[i].Addr = addrs[i]
		v.peers = append(v.peers, t.newPeer(addrs[i]))
	}
	t.view.Store(v)
	for _, p := range v.peers {
		t.wg.Add(1)
		go p.run()
	}
	for _, l := range t.locals {
		t.wg.Add(1)
		go t.acceptLoop(l)
	}
	return t, nil
}

func (t *TCP) newPeer(addr string) *tcpPeer {
	p := &tcpPeer{t: t, outbox: make(chan outFrame, t.cfg.QueueCapacity)}
	if addr != "" {
		p.addr.Store(&addr)
	}
	return p
}

// ---- membership table ----

// SetSpanObserver installs the liveness observer (nil removes it).
// Install it before announce traffic starts; observations made while
// no observer is set are not replayed.
func (t *TCP) SetSpanObserver(fn SpanObserver) {
	if fn == nil {
		t.spanObs.Store(nil)
		return
	}
	t.spanObs.Store(&fn)
}

// observeSpan feeds one liveness observation to the installed
// observer, if any.
func (t *TCP) observeSpan(lo, hi gossip.NodeID, addr string, age time.Duration) {
	if fp := t.spanObs.Load(); fp != nil {
		(*fp)(lo, hi, addr, age)
	}
}

// membershipAges returns, parallel to groups, each span's freshness in
// milliseconds: 0 for this process's own listening spans (we are
// always current about ourselves), elapsed-since-last-announce for
// spans that have announced directly to us, AgeUnknown otherwise.
func (t *TCP) membershipAges(groups []Group) []int64 {
	now := time.Now()
	ages := make([]int64, len(groups))
	for i, g := range groups {
		ages[i] = AgeUnknown
		if _, local := t.locals[g.Lo]; local {
			ages[i] = 0
			continue
		}
		if v, ok := t.announceAt.Load(g.Lo); ok {
			if ms := now.Sub(time.Unix(0, v.(int64))).Milliseconds(); ms >= 0 {
				ages[i] = ms
			} else {
				ages[i] = 0
			}
		}
	}
	return ages
}

// Groups returns a snapshot of the membership table with current
// addresses.
func (t *TCP) Groups() []Group {
	v := t.view.Load()
	out := make([]Group, len(v.groups))
	for i, g := range v.groups {
		g.Addr = ""
		if ap := v.peers[i].addr.Load(); ap != nil {
			g.Addr = *ap
		}
		out[i] = g
	}
	return out
}

// GroupAddr returns the group's address ("" if unknown) — for a local
// group, the actual bound listener address, which is what a peer
// process needs to be told.
func (t *TCP) GroupAddr(group int) string {
	v := t.view.Load()
	if group < 0 || group >= len(v.peers) {
		return ""
	}
	if ap := v.peers[group].addr.Load(); ap != nil {
		return *ap
	}
	return ""
}

// SetGroupAddr supplies (or replaces) a group's address by index.
func (t *TCP) SetGroupAddr(group int, addr string) error {
	v := t.view.Load()
	if group < 0 || group >= len(v.peers) {
		return fmt.Errorf("transport: group index %d out of range", group)
	}
	if _, err := net.ResolveTCPAddr("tcp", addr); err != nil {
		return fmt.Errorf("transport: group %d addr %q: %w", group, addr, err)
	}
	v.peers[group].addr.Store(&addr)
	return nil
}

// Covers reports whether the known groups tile [0, total) with every
// address resolved — the bootstrap completion condition. Groups at or
// above total (observer spans) neither help nor hurt: an observer
// joining mid-bootstrap must not flip anyone's coverage back to false.
func (t *TCP) Covers(total int) bool {
	v := t.view.Load()
	at := gossip.NodeID(0)
	for i, g := range v.groups {
		if int(at) >= total {
			break
		}
		if g.Lo != at {
			return false
		}
		ap := v.peers[i].addr.Load()
		if ap == nil || *ap == "" {
			return false
		}
		at = g.Hi
	}
	return int(at) >= total
}

// RegisterGroup adds (or confirms) one peer group's span and address.
// Re-registering an identical span is idempotent; the same span at a
// different address, or any overlap with an existing group, is
// ErrSpanConflict. Must complete before a Population binds: inserting
// a group shifts batch group indices.
func (t *TCP) RegisterGroup(lo, hi gossip.NodeID, addr string) error {
	return t.registerGroup(lo, hi, addr, false)
}

// ReplaceGroup is RegisterGroup with restart semantics: an exact span
// match at a different address updates the stored address and severs
// the stale cached connection, instead of reporting ErrSpanConflict.
// Overlapping (non-identical) spans still conflict. This is how a
// process that crashed and came back on a new ephemeral port — an
// observer gateway, typically — reclaims its span.
func (t *TCP) ReplaceGroup(lo, hi gossip.NodeID, addr string) error {
	return t.registerGroup(lo, hi, addr, true)
}

func (t *TCP) registerGroup(lo, hi gossip.NodeID, addr string, replace bool) error {
	if lo < 0 || hi <= lo {
		return fmt.Errorf("transport: span [%d,%d) is empty", lo, hi)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed.Load() {
		return fmt.Errorf("transport: closed")
	}
	v := t.view.Load()
	for i, g := range v.groups {
		if lo < g.Hi && g.Lo < hi {
			if lo == g.Lo && hi == g.Hi {
				cur := ""
				if ap := v.peers[i].addr.Load(); ap != nil {
					cur = *ap
				}
				switch {
				case addr == "" || addr == cur:
					return nil
				case cur == "":
					a := addr
					v.peers[i].addr.Store(&a)
					return nil
				case replace:
					if _, local := t.locals[g.Lo]; local {
						// Nobody replaces this process's own listening
						// span out from under it.
						return fmt.Errorf("%w: span [%d,%d) is local, refused replacement from %s",
							ErrSpanConflict, lo, hi, addr)
					}
					a := addr
					v.peers[i].addr.Store(&a)
					// Sever the cached connection toward the stale
					// address; the writer redials the new one. Not
					// counted in Kills(): that is loss injection.
					if cp := v.peers[i].conn.Swap(nil); cp != nil {
						(*cp).Close()
					}
					return nil
				default:
					return fmt.Errorf("%w: span [%d,%d) already registered at %s, announced from %s",
						ErrSpanConflict, lo, hi, cur, addr)
				}
			}
			return fmt.Errorf("%w: span [%d,%d) overlaps registered [%d,%d)",
				ErrSpanConflict, lo, hi, g.Lo, g.Hi)
		}
	}
	p := t.newPeer(addr)
	i := sort.Search(len(v.groups), func(i int) bool { return v.groups[i].Lo >= lo })
	nv := &tcpView{
		groups: make([]Group, 0, len(v.groups)+1),
		peers:  make([]*tcpPeer, 0, len(v.peers)+1),
	}
	nv.groups = append(append(append(nv.groups, v.groups[:i]...), Group{Lo: lo, Hi: hi, Addr: addr}), v.groups[i:]...)
	nv.peers = append(append(append(nv.peers, v.peers[:i]...), p), v.peers[i:]...)
	t.view.Store(nv)
	t.wg.Add(1)
	go p.run()
	return nil
}

// Announce performs one bootstrap round-trip against a seed: dial,
// announce our span and listen address, read the membership reply,
// merge every entry it lists. A rejection surfaces as ErrSpanConflict
// (fatal: someone else owns our span); dial or read failures are plain
// errors the caller retries — the seed may simply not be up yet.
func (t *TCP) Announce(seedAddr string, lo, hi gossip.NodeID, selfAddr string) error {
	return t.announce(seedAddr, lo, hi, selfAddr, false)
}

// AnnounceReplace is Announce with restart semantics: the seed treats
// an exact span match at a new address as this process reclaiming its
// span (see ReplaceGroup) rather than as ErrSpanConflict, and pushes
// the updated table to the rest of the membership.
func (t *TCP) AnnounceReplace(seedAddr string, lo, hi gossip.NodeID, selfAddr string) error {
	return t.announce(seedAddr, lo, hi, selfAddr, true)
}

func (t *TCP) announce(seedAddr string, lo, hi gossip.NodeID, selfAddr string, replace bool) error {
	c, err := net.DialTimeout("tcp", seedAddr, t.cfg.DialTimeout)
	if err != nil {
		return err
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(t.cfg.DialTimeout + 2*time.Second))
	payload := wire.AppendHeader(nil, wire.Header{Kind: kindAnnounce})
	payload = appendAnnounce(payload, lo, hi, selfAddr, replace)
	if _, err := c.Write(wire.AppendFrame(nil, payload)); err != nil {
		return err
	}
	scan := frameScanner{max: t.cfg.MaxFrame}
	buf := make([]byte, 4096)
	for {
		n, err := c.Read(buf)
		if n > 0 {
			scan.feed(buf[:n])
			frame, ferr := scan.next()
			if ferr != nil {
				return ferr
			}
			if frame != nil {
				return t.mergeMembership(frame)
			}
		}
		if err != nil {
			return err
		}
	}
}

func (t *TCP) mergeMembership(frame []byte) error {
	h, rest, err := wire.DecodeHeader(frame)
	if err != nil {
		return err
	}
	if h.Kind != kindMembership {
		return fmt.Errorf("transport: announce reply has kind %d, want membership", h.Kind)
	}
	entries, ages, reject, err := decodeMembership(rest)
	if err != nil {
		return err
	}
	if reject != "" {
		return fmt.Errorf("%w: seed rejected announce: %s", ErrSpanConflict, reject)
	}
	return t.mergeEntries(entries, ages)
}

// mergeEntries registers a seed-authored membership table and relays
// each entry's freshness to the span observer. Addresses replace (the
// seed already vetted the change); unknown ages are not observed —
// they say nothing about liveness.
func (t *TCP) mergeEntries(entries []Group, ages []int64) error {
	var first error
	for i, e := range entries {
		// Membership tables are seed-authored: an address change for a
		// known span is a replacement the seed already vetted.
		if err := t.registerGroup(e.Lo, e.Hi, e.Addr, true); err != nil && first == nil {
			first = err
		}
		if i < len(ages) && ages[i] >= 0 {
			t.observeSpan(e.Lo, e.Hi, e.Addr, time.Duration(ages[i])*time.Millisecond)
		}
	}
	return first
}

// ---- send path ----

// frameOff writes the uvarint length of buf[frameSlack:] backwards
// into the slack reserved ahead of it, returning the frame's start
// offset within buf.
func frameOff(buf []byte) int {
	var tmp [frameSlack]byte
	n := binary.PutUvarint(tmp[:], uint64(len(buf)-frameSlack))
	copy(buf[frameSlack-n:frameSlack], tmp[:n])
	return frameSlack - n
}

// Send implements Transport: wire-encode one envelope, frame it, and
// queue it on the destination group's outbox. Acceptance means the
// frame is in flight toward the writer goroutine — it is counted Sent
// only once handed to the kernel, and becomes a counted drop if the
// outbox is full, the connection is down and unredialable, or the
// write fails; gossip tolerates all of it by design.
func (t *TCP) Send(from, to gossip.NodeID, tick int, payload any) bool {
	if t.closed.Load() {
		t.dropped.Add(1)
		return false
	}
	v := t.view.Load()
	gi := v.groupOf(to)
	if gi < 0 {
		t.dropped.Add(1)
		return false
	}
	bp := t.bufs.Get().(*[]byte)
	var slack [frameSlack]byte
	buf, err := appendEnvelope(append((*bp)[:0], slack[:]...), from, to, tick, payload)
	if err == nil && len(buf)-frameSlack > t.cfg.MaxFrame {
		err = fmt.Errorf("transport: %d-byte frame exceeds MaxFrame %d", len(buf)-frameSlack, t.cfg.MaxFrame)
	}
	if err != nil {
		if buf != nil {
			*bp = buf
		}
		t.bufs.Put(bp)
		t.dropped.Add(1)
		return false
	}
	off := frameOff(buf)
	*bp = buf
	return t.enqueue(v.peers[gi], bp, off, 1)
}

func (t *TCP) enqueue(p *tcpPeer, bp *[]byte, off, msgs int) bool {
	select {
	case p.outbox <- outFrame{buf: bp, off: off, msgs: msgs}:
		return true
	default:
		t.bufs.Put(bp)
		t.dropped.Add(int64(msgs))
		t.overflow.Add(int64(msgs))
		return false
	}
}

// dial attempts one connection toward the peer's current address.
func (p *tcpPeer) dial() net.Conn {
	ap := p.addr.Load()
	if ap == nil || *ap == "" {
		return nil
	}
	c, err := net.DialTimeout("tcp", *ap, p.t.cfg.DialTimeout)
	if err != nil {
		return nil
	}
	return c
}

// run is the peer's writer goroutine: it owns the cached connection,
// dials lazily with exponential backoff (the shared internal/backoff
// policy: doubling from BackoffMin to BackoffMax with a little jitter,
// so peers of a restarted process do not redial in lockstep), and
// coalesces every queued frame into one buffered write burst flushed
// when the outbox runs dry. A write failure drops the frame, kills the
// connection, and leaves redialing to the next burst.
func (p *tcpPeer) run() {
	t := p.t
	defer t.wg.Done()
	var conn net.Conn
	var bw *bufio.Writer
	redial := backoff.New(backoff.Policy{Min: t.cfg.BackoffMin, Max: t.cfg.BackoffMax, Jitter: 0.1})
	var nextDial time.Time
	hadConn := false
	closeConn := func() {
		if conn != nil {
			conn.Close()
			p.conn.Store(nil)
			conn, bw = nil, nil
		}
	}
	defer closeConn()
	drop := func(it outFrame) {
		t.dropped.Add(int64(it.msgs))
		t.bufs.Put(it.buf)
	}
	for {
		var it outFrame
		select {
		case <-t.done:
			for {
				select {
				case it := <-p.outbox:
					drop(it)
				default:
					return
				}
			}
		case it = <-p.outbox:
		}
		wrote := false
		for {
			// KillLink severs the connection out from under us; the
			// mirror going nil is the signal to stop trusting ours.
			if conn != nil && p.conn.Load() == nil {
				closeConn()
			}
			if conn == nil && !t.closed.Load() && !time.Now().Before(nextDial) {
				if c := p.dial(); c != nil {
					conn, bw = c, bufio.NewWriterSize(c, 32<<10)
					cc := c
					p.conn.Store(&cc)
					conn.SetWriteDeadline(time.Now().Add(tcpWriteDeadline))
					redial.Reset()
					if hadConn {
						t.reconnects.Add(1)
					}
					hadConn = true
				} else {
					nextDial = time.Now().Add(redial.Next())
				}
			}
			if conn == nil {
				drop(it)
			} else if _, err := bw.Write((*it.buf)[it.off:]); err != nil {
				drop(it)
				closeConn()
			} else {
				t.sent.Add(int64(it.msgs))
				t.bufs.Put(it.buf)
				wrote = true
			}
			select {
			case it = <-p.outbox:
				continue
			default:
			}
			break
		}
		if conn != nil && wrote {
			conn.SetWriteDeadline(time.Now().Add(tcpWriteDeadline))
			if err := bw.Flush(); err != nil {
				// Frames buffered since the last good flush die with
				// the connection after being counted Sent (see Sent).
				closeConn()
			}
		}
	}
}

// KillLink implements LinkKiller: sever the cached connection toward
// the group owning `to`. The writer notices the severed mirror, drops
// what was in flight, and redials on the next burst.
func (t *TCP) KillLink(to gossip.NodeID) bool {
	v := t.view.Load()
	gi := v.groupOf(to)
	if gi < 0 {
		return false
	}
	return t.killPeer(v.peers[gi])
}

func (t *TCP) killPeer(p *tcpPeer) bool {
	if cp := p.conn.Swap(nil); cp != nil {
		(*cp).Close()
		t.kills.Add(1)
		return true
	}
	return false
}

// Kills returns the number of connections severed by KillLink — the
// link-failure count a Lossy-over-TCP run uses where a Lossy-over-
// Channel run would read drop counts.
func (t *TCP) Kills() int64 { return t.kills.Load() }

// Reconnects returns the number of times a peer writer successfully
// re-established a connection after a previous one died (by write
// failure, remote close, or KillLink). The first dial toward a peer
// is not a reconnect.
func (t *TCP) Reconnects() int64 { return t.reconnects.Load() }

// OverflowDrops returns the number of messages shed because a bounded
// queue was full: sender outboxes, receiver batch queues, and
// receiver host inboxes. A subset of Dropped — the backpressure
// share, as opposed to losses from dead connections.
func (t *TCP) OverflowDrops() int64 { return t.overflow.Load() }

// AsTCP unwraps capability-forwarding layers (Lossy, or anything
// exposing Unwrap) down to the TCP transport, if one is at the bottom
// of the stack.
func AsTCP(tr Transport) (*TCP, bool) {
	for {
		switch v := tr.(type) {
		case *TCP:
			return v, true
		case *Lossy:
			tr = v.T
		case Unwrapper:
			tr = v.Unwrap()
		default:
			return nil, false
		}
	}
}

// ---- receive path ----

// frameScanner accumulates socket bytes and splits them into frames
// via wire.DecodeFrame, compacting consumed prefixes so the buffer
// stays proportional to one frame plus one read.
type frameScanner struct {
	max int
	buf []byte
	pos int
}

func (s *frameScanner) feed(p []byte) {
	if s.pos == len(s.buf) {
		s.buf, s.pos = s.buf[:0], 0
	} else if s.pos >= 4096 {
		n := copy(s.buf, s.buf[s.pos:])
		s.buf, s.pos = s.buf[:n], 0
	}
	s.buf = append(s.buf, p...)
}

// next returns the next complete frame (aliasing the internal buffer,
// valid until the next feed), nil when more bytes are needed, or an
// error when the stream is corrupt beyond resynchronization.
func (s *frameScanner) next() ([]byte, error) {
	frame, rest, err := wire.DecodeFrame(s.buf[s.pos:], s.max)
	if errors.Is(err, wire.ErrShortFrame) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	s.pos = len(s.buf) - len(rest)
	return frame, nil
}

// acceptLoop owns one local listener.
func (t *TCP) acceptLoop(l *tcpLocal) {
	defer t.wg.Done()
	for {
		c, err := l.ln.Accept()
		if err != nil {
			return
		}
		t.mu.Lock()
		if t.closed.Load() {
			t.mu.Unlock()
			c.Close()
			return
		}
		t.accepted[c] = struct{}{}
		t.mu.Unlock()
		t.wg.Add(1)
		go t.readConn(c)
	}
}

// readConn pulls frames off one accepted connection and dispatches
// them. Corruption — a bad length, an undecodable envelope is fine but
// an unframeable *stream* is not — has no resynchronization point, so
// it drops the connection; the peer's writer will redial and start a
// clean stream.
func (t *TCP) readConn(c net.Conn) {
	defer t.wg.Done()
	defer func() {
		c.Close()
		t.mu.Lock()
		delete(t.accepted, c)
		t.mu.Unlock()
	}()
	scan := frameScanner{max: t.cfg.MaxFrame}
	buf := make([]byte, 32<<10)
	for {
		n, err := c.Read(buf)
		if n > 0 {
			scan.feed(buf[:n])
			for {
				frame, ferr := scan.next()
				if ferr != nil {
					t.dropped.Add(1)
					return
				}
				if frame == nil {
					break
				}
				t.handleFrame(c, frame)
			}
		}
		if err != nil {
			return
		}
	}
}

// handleFrame dispatches one received frame: batch frames to their
// group queue, bootstrap control frames to the membership layer,
// everything else through the envelope decoder to a host queue.
func (t *TCP) handleFrame(c net.Conn, frame []byte) {
	h, rest, err := wire.DecodeHeader(frame)
	if err != nil {
		t.dropped.Add(1)
		return
	}
	switch h.Kind {
	case kindColumnarBatch:
		// The batch header's To carries the destination group's Lo
		// host id — stable across bootstrap insertions, unlike a table
		// index.
		l := t.locals[gossip.NodeID(h.To)]
		if l == nil {
			t.dropped.Add(int64(h.From))
			return
		}
		bp := t.bufs.Get().(*[]byte)
		*bp = append((*bp)[:0], rest...)
		select {
		case l.batchQ <- batchItem{buf: bp, msgs: int(h.From)}:
		default:
			t.bufs.Put(bp)
			t.dropped.Add(int64(h.From))
			t.overflow.Add(int64(h.From))
		}
	case kindAnnounce:
		t.handleAnnounce(c, rest)
	case kindMembership:
		// Unsolicited membership (not an announce reply): merge what it
		// lists, quietly — extra knowledge never hurts. Address changes
		// replace (the frame is seed-authored; this is how the cluster
		// learns a restarted observer's new address), and relayed
		// freshness ages feed the span observer.
		if entries, ages, reject, err := decodeMembership(rest); err == nil && reject == "" {
			_ = t.mergeEntries(entries, ages)
		}
	default:
		_, payload, err := decodePayload(h, rest)
		if err != nil {
			t.dropped.Add(1)
			return
		}
		q := t.hostQueues()[gossip.NodeID(h.To)]
		if q == nil {
			t.dropped.Add(1)
			return
		}
		select {
		case q <- payload:
		default:
			t.dropped.Add(1)
			t.overflow.Add(1)
		}
	}
}

// handleAnnounce is the seed side of the bootstrap handshake: register
// the announced span, reply on the same connection with either the
// membership table or the rejection.
func (t *TCP) handleAnnounce(c net.Conn, payload []byte) {
	lo, hi, addr, replace, err := decodeAnnounce(payload)
	if err != nil {
		t.dropped.Add(1)
		return
	}
	var reply []byte
	regErr := t.registerGroup(lo, hi, addr, replace)
	if regErr == nil {
		// A direct announce is a heartbeat: record when we heard this
		// span (the freshness the age section reports) and feed the
		// observer. Idempotent keepalive re-announces land here too —
		// that is the detector's steady diet.
		t.announceAt.Store(lo, time.Now().UnixNano())
		t.observeSpan(lo, hi, addr, 0)
		gs := t.Groups()
		reply = appendMembership(nil, gs, t.membershipAges(gs))
	} else {
		reply = appendMembershipReject(nil, regErr.Error())
	}
	frame := wire.AppendHeader(nil, wire.Header{Kind: kindMembership})
	frame = append(frame, reply...)
	c.SetWriteDeadline(time.Now().Add(tcpWriteDeadline))
	c.Write(wire.AppendFrame(nil, frame))
	if regErr == nil {
		t.pushMembership()
	}
}

// pushMembership broadcasts the current membership table to every
// remote peer with a known address, over the regular writer outboxes
// (msgs=0, so Sent/Dropped stay protocol-only; the receive side merges
// unsolicited kindMembership frames). A seed calls this after each
// accepted announce: the announce REPLY only reaches the one process
// that just dialed in, so members registered earlier would otherwise
// depend on their re-announce cadence to learn later spans — and a
// seed that completes its run and exits between a slow member's
// retries leaves that member waiting on coverage forever.
func (t *TCP) pushMembership() {
	frame := wire.AppendHeader(nil, wire.Header{Kind: kindMembership})
	gs := t.Groups()
	frame = appendMembership(frame, gs, t.membershipAges(gs))
	v := t.view.Load()
	for i, p := range v.peers {
		if _, local := t.locals[v.groups[i].Lo]; local {
			continue
		}
		if ap := p.addr.Load(); ap == nil || *ap == "" {
			continue
		}
		bp := t.bufs.Get().(*[]byte)
		var slack [frameSlack]byte
		buf := append(append((*bp)[:0], slack[:]...), frame...)
		off := frameOff(buf)
		*bp = buf
		t.enqueue(p, bp, off, 0)
	}
}

// ---- batch plane ----

// BatchGroups implements Batcher.
func (t *TCP) BatchGroups() int { return len(t.view.Load().groups) }

// BatchGroup implements Batcher.
func (t *TCP) BatchGroup(g int) (lo, hi gossip.NodeID) {
	gr := t.view.Load().groups[g]
	return gr.Lo, gr.Hi
}

// MaxBatchBody implements Batcher: the shared batch ceiling (so chan
// and tcp runs batch identically) unless MaxFrame is tighter.
func (t *TCP) MaxBatchBody() int {
	m := maxBatchPayload - maxBatchHeader
	if f := t.cfg.MaxFrame - maxBatchHeader; f < m {
		m = f
	}
	return m
}

// SendBatch implements Batcher: one frame carrying a whole shard's
// wave, queued on the destination group's outbox. Failure modes are
// counted drops of all msgs messages, mirroring Send.
func (t *TCP) SendBatch(group, tick, msgs int, body []byte) bool {
	v := t.view.Load()
	if t.closed.Load() || group < 0 || group >= len(v.groups) || len(body) > t.MaxBatchBody() {
		t.dropped.Add(int64(msgs))
		return false
	}
	bp := t.bufs.Get().(*[]byte)
	var slack [frameSlack]byte
	buf := wire.AppendHeader(append((*bp)[:0], slack[:]...), wire.Header{
		Kind: kindColumnarBatch, To: int32(v.groups[group].Lo), From: int32(msgs), Tick: int32(tick),
	})
	buf = append(buf, body...)
	off := frameOff(buf)
	*bp = buf
	return t.enqueue(v.peers[group], bp, off, msgs)
}

// DrainBatch implements Batcher.
func (t *TCP) DrainBatch(group int, fn func(body []byte)) {
	v := t.view.Load()
	if group < 0 || group >= len(v.groups) {
		return
	}
	l := t.locals[v.groups[group].Lo]
	if l == nil {
		return
	}
	for {
		select {
		case it := <-l.batchQ:
			fn(*it.buf)
			t.bufs.Put(it.buf)
		default:
			return
		}
	}
}

// ---- per-host receive plane ----

// hostQueues returns the per-host inbox map — one buffered channel per
// local-group host — building it on first use. Classic engines hit
// Drain on their first tick, so for them the plane exists microseconds
// into Run (a frame landing even before that is built on arrival).
func (t *TCP) hostQueues() map[gossip.NodeID]chan any {
	if m := t.hostQ.Load(); m != nil {
		return *m
	}
	t.hostQOnce.Do(func() {
		m := make(map[gossip.NodeID]chan any)
		for _, l := range t.locals {
			for id := l.lo; id < l.hi; id++ {
				m[id] = make(chan any, t.cfg.QueueCapacity)
			}
		}
		t.hostQ.Store(&m)
	})
	return *t.hostQ.Load()
}

// Drain implements Transport.
func (t *TCP) Drain(id gossip.NodeID, fn func(payload any)) {
	q := t.hostQueues()[id]
	if q == nil {
		return
	}
	for {
		select {
		case p := <-q:
			fn(p)
		default:
			return
		}
	}
}

// Sent implements Transport: frames handed to the kernel. "Sent" does
// not imply delivery — a frame can be counted Sent and then die with
// its connection before the flush, or be counted again in Dropped when
// the receiver's queue sheds it, so Sent+Dropped can exceed the number
// of Send calls. That is the radio's two-station bookkeeping (see the
// package doc).
func (t *TCP) Sent() int64 { return t.sent.Load() }

// Dropped implements Transport: encode failures, unroutable or
// unreachable destinations, outbox and receive-queue overflow, frames
// lost to broken connections.
func (t *TCP) Dropped() int64 { return t.dropped.Load() }

// Close implements Transport: stop accepting, sever every connection,
// and wait for the writers, readers, and acceptors to exit.
func (t *TCP) Close() error {
	if t.closed.Swap(true) {
		return nil
	}
	close(t.done)
	var first error
	for _, l := range t.locals {
		if err := l.ln.Close(); err != nil && first == nil {
			first = err
		}
	}
	t.mu.Lock()
	v := t.view.Load()
	for _, p := range v.peers {
		if cp := p.conn.Swap(nil); cp != nil {
			(*cp).Close()
		}
	}
	for c := range t.accepted {
		c.Close()
	}
	t.mu.Unlock()
	t.wg.Wait()
	return first
}
