package transport

import (
	"encoding/binary"
	"fmt"
	"sort"

	"dynagg/internal/gossip"
	"dynagg/internal/protocol/extremes"
	"dynagg/internal/protocol/moments"
	"dynagg/internal/protocol/multi"
	"dynagg/internal/protocol/pushsum"
	"dynagg/internal/protocol/pushsumrevert"
	"dynagg/internal/protocol/sketchreset"
	"dynagg/internal/sketch"
	"dynagg/internal/wire"
)

// Protocol kind tags carried in the envelope header so a frame is
// self-describing: the receiver needs no out-of-band agreement about
// which protocol is running to decode (or reject) a payload.
const (
	kindPushSumMass uint8 = iota + 1
	kindRevertMass
	kindMomentsMass
	kindResetCounters
	kindSketchBits
	kindCandidates
	// kindColumnarBatch tags a Batcher frame: the header's To is the
	// destination group's Lo host id (which stays stable while
	// bootstrap is still inserting groups and shifting indices), From
	// the encoded message count, and
	// the body an opaque run of protocol-framed records the columnar
	// live path decodes straight into state columns.
	kindColumnarBatch
	// kindAnnounce and kindMembership are the TCP bootstrap control
	// frames: a joining process announces its [Lo,Hi) span and listen
	// address; the seed replies with the membership table it knows (or
	// a rejection when the span conflicts). See membership.go.
	kindAnnounce
	kindMembership
	// kindMultiBundle tags a multi-protocol bundle: named
	// Push-Sum-Revert masses plus an optional Count-Sketch-Reset
	// counter matrix, the paper's Figure 7 deployment in one frame.
	kindMultiBundle
)

// maxCounterElements bounds the counter matrices a frame may carry
// (the paper's sketches are 64×24 = 1536 counters; this leaves two
// orders of magnitude of headroom without letting a hostile frame
// size an allocation).
const maxCounterElements = 1 << 16

// maxBundleAggregates and maxAggregateNameLen bound a multi bundle: a
// hostile frame must not be able to size an unbounded map or string
// allocation. Real deployments carry a handful of short names.
const (
	maxBundleAggregates = 1 << 10
	maxAggregateNameLen = 256
)

// appendEnvelope encodes header + payload for one cross-host message.
// Both the value payloads of Emit and the pointer payloads of
// EmitAppend are accepted; an unknown payload type is an error (the
// caller counts it as a drop).
func appendEnvelope(dst []byte, from, to gossip.NodeID, tick int, payload any) ([]byte, error) {
	hdr := func(kind uint8) wire.Header {
		return wire.Header{Kind: kind, To: int32(to), From: int32(from), Tick: int32(tick)}
	}
	switch p := payload.(type) {
	case pushsum.Mass:
		dst = wire.AppendHeader(dst, hdr(kindPushSumMass))
		return wire.AppendMass(dst, p.W, p.V), nil
	case *pushsum.Mass:
		dst = wire.AppendHeader(dst, hdr(kindPushSumMass))
		return wire.AppendMass(dst, p.W, p.V), nil
	case pushsumrevert.Mass:
		dst = wire.AppendHeader(dst, hdr(kindRevertMass))
		return wire.AppendMass(dst, p.W, p.V), nil
	case *pushsumrevert.Mass:
		dst = wire.AppendHeader(dst, hdr(kindRevertMass))
		return wire.AppendMass(dst, p.W, p.V), nil
	case moments.Mass:
		dst = wire.AppendHeader(dst, hdr(kindMomentsMass))
		return wire.AppendMass3(dst, p.W, p.V, p.Q), nil
	case *moments.Mass:
		dst = wire.AppendHeader(dst, hdr(kindMomentsMass))
		return wire.AppendMass3(dst, p.W, p.V, p.Q), nil
	case []uint8:
		dst = wire.AppendHeader(dst, hdr(kindResetCounters))
		return wire.AppendCounters(dst, p), nil
	case *sketchreset.Counters:
		dst = wire.AppendHeader(dst, hdr(kindResetCounters))
		return wire.AppendCounters(dst, p.Ages), nil
	case *sketch.Sketch:
		// The bin words alone don't determine the sketch shape, so the
		// level count rides along ahead of them.
		dst = wire.AppendHeader(dst, hdr(kindSketchBits))
		dst = binary.AppendUvarint(dst, uint64(p.Params().Levels))
		return wire.AppendSketchBits(dst, p.Bits()), nil
	case []extremes.Candidate:
		dst = wire.AppendHeader(dst, hdr(kindCandidates))
		return appendCandidates(dst, p), nil
	case *extremes.Table:
		dst = wire.AppendHeader(dst, hdr(kindCandidates))
		return appendCandidates(dst, p.Candidates), nil
	case multi.Bundle:
		return appendMultiBundle(dst, hdr(kindMultiBundle), p)
	case *multi.Bundle:
		return appendMultiBundle(dst, hdr(kindMultiBundle), *p)
	default:
		return nil, fmt.Errorf("transport: no wire encoding for payload %T", payload)
	}
}

// appendMultiBundle encodes a multi-protocol bundle: an aggregate
// count, then (name, mass) pairs in sorted name order, then a flag
// byte announcing whether the sketch counter matrix follows.
func appendMultiBundle(dst []byte, h wire.Header, b multi.Bundle) ([]byte, error) {
	if len(b.Masses) > maxBundleAggregates {
		return nil, fmt.Errorf("transport: multi bundle with %d aggregates exceeds cap %d", len(b.Masses), maxBundleAggregates)
	}
	dst = wire.AppendHeader(dst, h)
	dst = binary.AppendUvarint(dst, uint64(len(b.Masses)))
	names := make([]string, 0, len(b.Masses))
	for name := range b.Masses {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if len(name) > maxAggregateNameLen {
			return nil, fmt.Errorf("transport: multi aggregate name %d bytes exceeds cap %d", len(name), maxAggregateNameLen)
		}
		var m pushsumrevert.Mass
		switch mp := b.Masses[name].(type) {
		case pushsumrevert.Mass:
			m = mp
		case *pushsumrevert.Mass:
			m = *mp
		default:
			return nil, fmt.Errorf("transport: multi bundle mass %T for %q", b.Masses[name], name)
		}
		dst = binary.AppendUvarint(dst, uint64(len(name)))
		dst = append(dst, name...)
		dst = wire.AppendMass(dst, m.W, m.V)
	}
	switch c := b.Count.(type) {
	case nil:
		dst = append(dst, 0)
	case []uint8:
		dst = append(dst, 1)
		dst = wire.AppendCounters(dst, c)
	case *sketchreset.Counters:
		dst = append(dst, 1)
		dst = wire.AppendCounters(dst, c.Ages)
	default:
		return nil, fmt.Errorf("transport: multi bundle count payload %T", b.Count)
	}
	return dst, nil
}

func appendCandidates(dst []byte, cands []extremes.Candidate) []byte {
	wc := make([]wire.Candidate, len(cands))
	for i, c := range cands {
		wc[i] = wire.Candidate{Value: c.Value, Owner: int32(c.Owner), Age: int32(c.Age)}
	}
	return wire.AppendCandidates(dst, wc)
}

// decodeEnvelope parses one frame into its header and a payload
// value of the exact Go type the protocol's Receive expects from Emit.
func decodeEnvelope(src []byte) (wire.Header, any, error) {
	h, rest, err := wire.DecodeHeader(src)
	if err != nil {
		return wire.Header{}, nil, err
	}
	return decodePayload(h, rest)
}

// decodePayload decodes the post-header bytes of a per-host frame
// (the reader peels the header first so batch frames can bypass
// payload boxing entirely).
func decodePayload(h wire.Header, rest []byte) (wire.Header, any, error) {
	switch h.Kind {
	case kindPushSumMass:
		w, v, _, err := wire.DecodeMass(rest)
		if err != nil {
			return wire.Header{}, nil, err
		}
		return h, pushsum.Mass{W: w, V: v}, nil
	case kindRevertMass:
		w, v, _, err := wire.DecodeMass(rest)
		if err != nil {
			return wire.Header{}, nil, err
		}
		return h, pushsumrevert.Mass{W: w, V: v}, nil
	case kindMomentsMass:
		w, v, q, _, err := wire.DecodeMass3(rest)
		if err != nil {
			return wire.Header{}, nil, err
		}
		return h, moments.Mass{W: w, V: v, Q: q}, nil
	case kindResetCounters:
		counters, _, err := wire.DecodeCountersAlloc(rest, maxCounterElements)
		if err != nil {
			return wire.Header{}, nil, err
		}
		return h, counters, nil
	case kindSketchBits:
		// The uint64→int narrowing below must not wrap before
		// Params.Validate (the authority on sketch shape) sees the value.
		levels, n := binary.Uvarint(rest)
		if n <= 0 || levels > sketch.MaxLevels {
			return wire.Header{}, nil, fmt.Errorf("transport: sketch frame: bad level count")
		}
		bits, _, err := wire.DecodeSketchBits(rest[n:])
		if err != nil {
			return wire.Header{}, nil, err
		}
		params := sketch.Params{Bins: len(bits), Levels: int(levels)}
		if err := params.Validate(); err != nil {
			return wire.Header{}, nil, fmt.Errorf("transport: sketch frame: %w", err)
		}
		s := sketch.New(params)
		s.LoadBits(bits)
		return h, s, nil
	case kindCandidates:
		wc, _, err := wire.DecodeCandidates(rest)
		if err != nil {
			return wire.Header{}, nil, err
		}
		cands := make([]extremes.Candidate, len(wc))
		for i, c := range wc {
			cands[i] = extremes.Candidate{Value: c.Value, Owner: gossip.NodeID(c.Owner), Age: int(c.Age)}
		}
		return h, cands, nil
	case kindMultiBundle:
		count, used := binary.Uvarint(rest)
		if used <= 0 || count > maxBundleAggregates {
			return wire.Header{}, nil, fmt.Errorf("transport: multi bundle: bad aggregate count")
		}
		rest = rest[used:]
		masses := make(map[string]any, count)
		for i := uint64(0); i < count; i++ {
			l, used := binary.Uvarint(rest)
			if used <= 0 || l > maxAggregateNameLen || uint64(len(rest)-used) < l {
				return wire.Header{}, nil, fmt.Errorf("transport: multi bundle: bad aggregate name length")
			}
			name := string(rest[used : used+int(l)])
			rest = rest[used+int(l):]
			w, v, r, err := wire.DecodeMass(rest)
			if err != nil {
				return wire.Header{}, nil, err
			}
			masses[name] = pushsumrevert.Mass{W: w, V: v}
			rest = r
		}
		if len(rest) < 1 {
			return wire.Header{}, nil, fmt.Errorf("transport: multi bundle: missing sketch flag")
		}
		flag := rest[0]
		b := multi.Bundle{Masses: masses}
		switch flag {
		case 0:
		case 1:
			counters, _, err := wire.DecodeCountersAlloc(rest[1:], maxCounterElements)
			if err != nil {
				return wire.Header{}, nil, err
			}
			b.Count = counters
		default:
			return wire.Header{}, nil, fmt.Errorf("transport: multi bundle: bad sketch flag %d", flag)
		}
		return h, b, nil
	default:
		return wire.Header{}, nil, fmt.Errorf("transport: unknown payload kind %d", h.Kind)
	}
}
