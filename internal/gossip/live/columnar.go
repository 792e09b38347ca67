package live

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"dynagg/internal/gossip"
	"dynagg/internal/gossip/live/transport"
	"dynagg/internal/xrand"
)

// ColumnarProtocol is the contract a columnar protocol must satisfy to
// run on the live engine: the round kernels of gossip.ColumnarAgent
// plus three wire hooks that extend the columnar plane across the
// socket boundary. Where the classic live path boxes every payload
// into an interface value and the transport codec re-dispatches on its
// type, these hooks append a message's payload straight from the
// protocol's state columns into a batch body and fold a received
// record straight back into the destination's columns — no
// intermediate payload values, no per-host allocation on the hot path.
//
// Record framing is owned by the live engine: each record in a batch
// body is a uvarint destination host id followed by the protocol's
// payload bytes. AppendWire and DeliverWire see only the payload part.
//
// Async-safety contract: unlike the round engine, delivery here
// crosses tick (and process) boundaries, so a payload must be
// self-contained at decode time — AppendWire runs in the emitting
// shard's tick, immediately after EmitRange, while every m.From-indexed
// snapshot (e.g. Count-Sketch-Reset's shadow block) is still valid,
// and DeliverWire must depend only on the destination's columns plus
// the record bytes.
//
// pushsum.Columnar, pushsumrevert.Columnar, and sketchreset.Columnar
// implement it.
type ColumnarProtocol interface {
	gossip.ColumnarAgent
	// WireKind tags this protocol's batch records; a batch whose first
	// byte does not match the running protocol's kind is discarded
	// whole (a frame from some other experiment, or garbage).
	WireKind() uint8
	// AppendWire appends emitted message m's payload record to dst,
	// reading from the population's columns, and returns the extended
	// slice.
	AppendWire(dst []byte, m gossip.ColMsg) []byte
	// DeliverWire decodes one payload record from src and folds it
	// into host to's columns, returning the remaining bytes. The live
	// engine bounds-checks to against the draining shard before
	// calling.
	DeliverWire(to gossip.NodeID, src []byte) ([]byte, error)
}

// ColumnarPopulation is the dense host backend: one ColumnarProtocol
// owns the whole population's state, per-host PRNG streams live in one
// flat block, and drivers tick contiguous ranges of whole transport
// batch groups — each tick is a handful of flat kernel calls plus one
// encoded batch per destination group, so a million live hosts fit in
// one process with bounded RSS.
//
// Requirements: the full population (no Span), the push model
// (push/pull pairs cross shard ownership), and a transport exposing a
// batch plane (transport.Batcher — the channel and TCP transports
// both qualify, plain or wrapped in transport.Lossy). Liveness must be
// time-invariant, as everywhere in the live engine: a host that is
// dead at one tick must be dead at every tick, or its queued inbound
// mass would be discarded where the classic path would hold it.
type ColumnarPopulation struct {
	proto ColumnarProtocol
	e     *Engine
	b     transport.Batcher

	// rngStore is the population's PRNG block (16 bytes per host, one
	// allocation); rngs holds per-host pointers into it for
	// gossip.NewColRound.
	rngStore []xrand.Rand
	rngs     []*xrand.Rand
	// alive is the population-wide liveness bitmap; each driver fills
	// its own host range every tick.
	alive []bool
	// ticks counts each host's completed live iterations — the dense
	// column form of the classic path's per-goroutine tick counter.
	ticks []int32
	// groupOf maps a destination host to its batch group, so routing
	// an emission is one slice read.
	groupOf []uint16
	// nLocal counts self-share deliveries (never touch the transport).
	nLocal atomic.Int64
}

var _ Population = (*ColumnarPopulation)(nil)

// NewColumnarPopulation wraps a columnar protocol covering the full
// environment population (proto.Len() hosts).
func NewColumnarPopulation(proto ColumnarProtocol) *ColumnarPopulation {
	return &ColumnarPopulation{proto: proto}
}

// Columnar returns the backing protocol, for state inspection after a
// run.
func (p *ColumnarPopulation) Columnar() ColumnarProtocol { return p.proto }

// Hosts implements Population.
func (p *ColumnarPopulation) Hosts() int { return p.proto.Len() }

// Ticks returns how many live iterations host id has completed — racy
// during a run, exact after.
func (p *ColumnarPopulation) Ticks(id gossip.NodeID) int { return int(p.ticks[id]) }

// bind implements Population.
func (p *ColumnarPopulation) bind(e *Engine) error {
	cfg := e.cfg
	n := p.proto.Len()
	if e.partial {
		return fmt.Errorf("live: ColumnarPopulation drives the full population; Span is not supported (run an AgentPopulation per process instead)")
	}
	if n != cfg.Env.Size() {
		return fmt.Errorf("live: Population of %d hosts for environment of size %d", n, cfg.Env.Size())
	}
	if cfg.Model != gossip.Push {
		return fmt.Errorf("live: ColumnarPopulation supports only the push model; push/pull pairs cross shard ownership")
	}
	b, ok := transport.AsBatcher(e.tr)
	if !ok {
		return fmt.Errorf("live: ColumnarPopulation needs a transport with a batch plane (transport.Batcher); %T has none", e.tr)
	}
	// The batch groups must tile [0, n) exactly: drivers own whole
	// groups, and every host must belong to exactly one.
	at := 0
	for g := 0; g < b.BatchGroups(); g++ {
		lo, hi := b.BatchGroup(g)
		if int(lo) != at || hi <= lo {
			return fmt.Errorf("live: transport batch group %d covers [%d,%d); groups must tile [0,%d) contiguously", g, lo, hi, n)
		}
		at = int(hi)
	}
	if at != n {
		return fmt.Errorf("live: transport batch groups cover [0,%d) for a population of %d hosts", at, n)
	}
	p.e = e
	p.b = b
	p.rngStore = make([]xrand.Rand, n)
	p.rngs = make([]*xrand.Rand, n)
	root := xrand.New(cfg.Seed)
	for i := 0; i < n; i++ {
		p.rngStore[i] = *root.Split(uint64(i))
		p.rngs[i] = &p.rngStore[i]
	}
	p.alive = make([]bool, n)
	p.ticks = make([]int32, n)
	if b.BatchGroups() > 1<<16 {
		return fmt.Errorf("live: %d transport batch groups exceed the %d-group routing limit", b.BatchGroups(), 1<<16)
	}
	p.groupOf = make([]uint16, n)
	for g := 0; g < b.BatchGroups(); g++ {
		lo, hi := b.BatchGroup(g)
		for id := lo; id < hi; id++ {
			p.groupOf[id] = uint16(g)
		}
	}
	return nil
}

// drivers implements Population: drivers own contiguous runs of whole
// batch groups (so every column write — Begin/Emit/End on the host
// range, DeliverWire on drained inbound — stays inside one driver's
// territory and the tick needs no locks). Workers == 0 means one
// driver per group; more workers than groups are clamped.
func (p *ColumnarPopulation) drivers(workers int) []driver {
	groups := p.b.BatchGroups()
	if workers == 0 || workers > groups {
		workers = groups
	}
	ds := make([]driver, workers)
	for s := 0; s < workers; s++ {
		gLo, gHi := s*groups/workers, (s+1)*groups/workers
		lo, _ := p.b.BatchGroup(gLo)
		_, hi := p.b.BatchGroup(gHi - 1)
		rc := gossip.NewColRound(p.e.cfg.Model, p.e.cfg.Env, p.rngs)
		rc.Alive = p.alive
		ds[s] = &colShard{
			p: p, gLo: gLo, gHi: gHi, lo: int(lo), hi: int(hi),
			rc:  rc,
			enc: make([][]byte, groups),
			cnt: make([]int, groups),
		}
	}
	return ds
}

// local implements Population.
func (p *ColumnarPopulation) local() int64 { return p.nLocal.Load() }

// estimates implements Population.
func (p *ColumnarPopulation) estimates() []float64 {
	cfg := p.e.cfg
	n := p.proto.Len()
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		id := gossip.NodeID(i)
		if !cfg.Env.Alive(id, p.e.finalTick()) {
			continue
		}
		if v, ok := p.proto.Estimate(id); ok {
			out = append(out, v)
		}
	}
	return out
}

// colShard drives batch groups [gLo, gHi) — hosts [lo, hi). Per-shard
// scratch (the emission column, the self-share column, one encode
// buffer per destination group) is reused across ticks, so a
// steady-state tick allocates nothing.
type colShard struct {
	p        *ColumnarPopulation
	gLo, gHi int
	lo, hi   int
	rc       *gossip.ColRound
	out      []gossip.ColMsg
	self     []gossip.ColMsg
	enc      [][]byte // per destination group, first byte = WireKind
	cnt      []int    // records currently in enc[g]
}

// tick runs one columnar live iteration for the shard: sample
// liveness, BeginRange, fold every batch that arrived since the last
// tick straight into columns, EmitRange, deliver self shares
// in-process (mass must never evaporate), EndRange, then flush one
// batch per destination group — the classic pushTick, as kernels over
// ranges instead of interface calls per host.
func (s *colShard) tick(t int) {
	p := s.p
	env := p.e.cfg.Env
	proto := p.proto
	rc := s.rc
	rc.Round = t

	alive := p.alive
	for i := s.lo; i < s.hi; i++ {
		a := env.Alive(gossip.NodeID(i), t)
		alive[i] = a
		if a {
			p.ticks[i]++
		}
	}

	proto.BeginRange(rc, s.lo, s.hi)
	for g := s.gLo; g < s.gHi; g++ {
		p.b.DrainBatch(g, s.deliverBatch)
	}

	rc.Out = s.out[:0]
	proto.EmitRange(rc, s.lo, s.hi)
	s.out = rc.Out

	self := s.self[:0]
	for i := range s.out {
		m := s.out[i]
		if m.To == m.From {
			self = append(self, m)
			continue
		}
		s.encode(t, m)
	}
	s.self = self
	if len(self) > 0 {
		proto.Deliver(rc, self)
		p.nLocal.Add(int64(len(self)))
	}
	proto.EndRange(rc, s.lo, s.hi)

	for g := range s.enc {
		if s.cnt[g] > 0 {
			p.b.SendBatch(g, t, s.cnt[g], s.enc[g])
		}
		s.enc[g] = s.enc[g][:0]
		s.cnt[g] = 0
	}
}

// encode appends one cross-host message to its destination group's
// batch, flushing the accumulated records first when the new one would
// push the body past the transport's limit.
func (s *colShard) encode(t int, m gossip.ColMsg) {
	p := s.p
	g := int(p.groupOf[m.To])
	buf := s.enc[g]
	if len(buf) == 0 {
		buf = append(buf, p.proto.WireKind())
	}
	rec0 := len(buf)
	buf = binary.AppendUvarint(buf, uint64(uint32(m.To)))
	buf = p.proto.AppendWire(buf, m)
	max := p.b.MaxBatchBody()
	if len(buf) > max && rec0 > 1 {
		// Ship the records accumulated before this one, then restart
		// the body (kind byte + the new record slid forward).
		p.b.SendBatch(g, t, s.cnt[g], buf[:rec0])
		kind := buf[0]
		n := copy(buf[1:], buf[rec0:])
		buf[0] = kind
		buf = buf[:1+n]
		s.cnt[g] = 0
	}
	if len(buf) > max {
		// A single record larger than the body limit: hand it to the
		// transport alone, which drops and counts it — oversized state
		// simply does not fit the radio — and keep the buffer clean
		// for the records that do fit.
		p.b.SendBatch(g, t, 1, buf)
		s.enc[g] = buf[:0]
		return
	}
	s.enc[g] = buf
	s.cnt[g]++
}

// deliverBatch folds one inbound batch body into the shard's columns:
// check the protocol kind, then walk the records — uvarint destination
// id, protocol payload — bounds-checking every destination against the
// shard's host range so a corrupt frame cannot write another
// shard's (or nobody's) state. A record that fails to parse discards
// the rest of the batch, mirroring the classic reader's whole-frame
// drop on decode errors.
func (s *colShard) deliverBatch(body []byte) {
	p := s.p
	if len(body) == 0 || body[0] != p.proto.WireKind() {
		return
	}
	src := body[1:]
	for len(src) > 0 {
		to, n := binary.Uvarint(src)
		if n <= 0 || to < uint64(s.lo) || to >= uint64(s.hi) {
			return
		}
		rest, err := p.proto.DeliverWire(gossip.NodeID(to), src[n:])
		if err != nil {
			return
		}
		src = rest
	}
}
