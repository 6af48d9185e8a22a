package main

import (
	"context"
	"net"
	"net/netip"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"servicebroker/internal/backend"
	"servicebroker/internal/wire"
)

// The traced run times calls into each layer from this package only: the
// generator's HTTP or pool call, the gateway's socket (a wrapping
// net.PacketConn) and the backend (a wrapping backend.Connector). Spans are
// kept in memory and matched offline, never inside the program.

// epoch anchors every span timestamp of the process.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// payloadKey identifies a request across layers by the FNV-1a hash of its
// payload: the front end, the gateway and the backend all see the same bytes.
func payloadKey[T string | []byte](b T) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= 1099511628211
	}
	return h
}

// span is one timed call into a layer.
type span struct {
	key        uint64
	start, end int64
	write      bool
}

// maxSpans caps each span log so a fast workload's traced run stays small;
// calls beyond the cap are still counted in the layer's aggregates.
const maxSpans = 1 << 18

type spanLog struct {
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) add(s span) {
	l.mu.Lock()
	if len(l.spans) < maxSpans {
		l.spans = append(l.spans, s)
	}
	l.mu.Unlock()
}

func (l *spanLog) reset() {
	l.mu.Lock()
	l.spans = l.spans[:0]
	l.mu.Unlock()
}

func (l *spanLog) snapshot() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

// timedConnector wraps a backend.Connector, counting connects and timing
// every Do exchange.
type timedConnector struct {
	backend.Connector
	log      spanLog
	connects atomic.Int64
	trips    atomic.Int64
	inflight atomic.Int64
}

func (c *timedConnector) Connect(ctx context.Context) (backend.Session, error) {
	s, err := c.Connector.Connect(ctx)
	if err != nil {
		return nil, err
	}
	c.connects.Add(1)
	return &timedSession{Session: s, parent: c}, nil
}

type timedSession struct {
	backend.Session
	parent *timedConnector
}

func (s *timedSession) Do(ctx context.Context, payload []byte) ([]byte, error) {
	p := s.parent
	p.inflight.Add(1)
	start := now()
	out, err := s.Session.Do(ctx, payload)
	end := now()
	p.inflight.Add(-1)
	p.trips.Add(1)
	p.log.add(span{key: payloadKey(payload), start: start, end: end, write: isWrite(payload)})
	return out, err
}

func isWrite(payload []byte) bool {
	return len(payload) >= 6 && strings.EqualFold(string(payload[:6]), "UPDATE")
}

// gatewayConn wraps the gateway's socket. A request frame's residence in the
// broker tier runs from the read that delivered it to the write of its reply,
// matched by sender and frame ID.
type gatewayConn struct {
	net.PacketConn
	log spanLog

	mu      sync.Mutex
	pending map[frameRef]span

	reqBytes, respBytes   atomic.Int64
	reqFrames, respFrames atomic.Int64
}

type frameRef struct {
	from netip.AddrPort
	id   uint64
}

func newGatewayConn(pc net.PacketConn) *gatewayConn {
	return &gatewayConn{PacketConn: pc, pending: make(map[frameRef]span)}
}

func refOf(addr net.Addr, id uint64) frameRef {
	var ap netip.AddrPort
	if ua, ok := addr.(*net.UDPAddr); ok {
		ap = ua.AddrPort()
	}
	return frameRef{from: ap, id: id}
}

func (g *gatewayConn) ReadFrom(p []byte) (int, net.Addr, error) {
	n, from, err := g.PacketConn.ReadFrom(p)
	if err != nil {
		return n, from, err
	}
	t := now()
	m := wire.GetMessage()
	defer wire.PutMessage(m)
	if wire.DecodeInto(m, p[:n]) != nil {
		return n, from, nil
	}
	g.reqBytes.Add(int64(n))
	g.reqFrames.Add(1)
	ref := refOf(from, m.ID)
	g.mu.Lock()
	if _, dup := g.pending[ref]; !dup { // a retransmission keeps the first read
		g.pending[ref] = span{key: payloadKey(m.Payload), start: t}
	}
	g.mu.Unlock()
	return n, from, nil
}

func (g *gatewayConn) WriteTo(p []byte, addr net.Addr) (int, error) {
	m := wire.GetMessage()
	ok := wire.DecodeInto(m, p) == nil
	id := m.ID
	wire.PutMessage(m)
	t := now()
	if ok {
		g.respBytes.Add(int64(len(p)))
		g.respFrames.Add(1)
		ref := refOf(addr, id)
		g.mu.Lock()
		s, found := g.pending[ref]
		delete(g.pending, ref)
		g.mu.Unlock()
		if found {
			s.end = t
			g.log.add(s)
		}
	}
	return g.PacketConn.WriteTo(p, addr)
}

// ledger is the traced run's per-request breakdown of end-to-end time into
// the self time of each layer. Spans are matched one to one: each call span
// (front end), in the order calls ended, claims the earliest unclaimed
// gateway residence with its payload key that lies inside it, and each claimed residence claims the
// earliest unclaimed backend exchange with its key inside it, so concurrent
// requests with the same payload are never counted twice. A matched call's
// interval splits into front-end self, broker self and backend time; an
// unmatched call's interval is attributed to no layer. Unexplained time is
// everything of due → done that no layer accounts for: the generator's own
// answer checking plus the whole call of every unmatched request.
type ledger struct {
	e2eMean          float64 // µs, due → completion recorded by the generator
	lagMean          float64 // µs
	frontendSelfMean float64 // µs, matched call minus its residence
	brokerSelfMean   float64 // µs, residence minus its backend exchange
	backendMean      float64 // µs per request
	unexplainedPct   float64
	matchedRatio     float64 // calls that claimed a residence, over calls
	residenceP50     float64 // µs
	residenceP99     float64 // µs
}

// callSpan is the generator's record of one traced request: the layer call
// [start, end] inside the request's due → done interval.
type callSpan struct {
	span
	due, done int64
}

// claimer hands out spans by payload key, each at most once.
type claimer struct {
	byKey map[uint64][]span // sorted by start
	taken map[uint64][]bool
}

func newClaimer(spans []span) *claimer {
	c := &claimer{byKey: make(map[uint64][]span), taken: make(map[uint64][]bool)}
	for _, s := range spans {
		c.byKey[s.key] = append(c.byKey[s.key], s)
	}
	for k, list := range c.byKey {
		sort.Slice(list, func(i, j int) bool { return list[i].start < list[j].start })
		c.taken[k] = make([]bool, len(list))
	}
	return c
}

// claim takes the earliest unclaimed span with key k that lies inside
// [start, end].
func (c *claimer) claim(k uint64, start, end int64) (span, bool) {
	list, taken := c.byKey[k], c.taken[k]
	i := sort.Search(len(list), func(i int) bool { return list[i].start >= start })
	for ; i < len(list) && list[i].start <= end; i++ {
		if !taken[i] && list[i].end <= end {
			taken[i] = true
			return list[i], true
		}
	}
	return span{}, false
}

func buildLedger(calls []callSpan, residences, backendSpans []span) ledger {
	var l ledger
	if len(calls) == 0 {
		return l
	}
	// Calls claim in the order they ended: a call that ends first has the
	// fewest residences to choose from, and an overlapping longer call with
	// the same payload must not take its only one.
	calls = append([]callSpan(nil), calls...)
	sort.Slice(calls, func(i, j int) bool { return calls[i].end < calls[j].end })
	resClaim, beClaim := newClaimer(residences), newClaimer(backendSpans)
	var e2e, lag, fe, br, be float64
	matched := 0
	for _, c := range calls {
		e2e += float64(c.done - c.due)
		lag += float64(c.start - c.due)
		r, ok := resClaim.claim(c.key, c.start, c.end)
		if !ok {
			continue
		}
		matched++
		var back int64
		if b, ok := beClaim.claim(c.key, r.start, r.end); ok {
			back = b.end - b.start
		}
		fe += float64(c.end - c.start - (r.end - r.start))
		br += float64(r.end - r.start - back)
		be += float64(back)
	}
	n := float64(len(calls))
	l.e2eMean, l.lagMean = e2e/n/1e3, lag/n/1e3
	l.frontendSelfMean, l.brokerSelfMean, l.backendMean = fe/n/1e3, br/n/1e3, be/n/1e3
	l.matchedRatio = float64(matched) / n
	if e2e > 0 {
		l.unexplainedPct = 100 * (e2e - lag - fe - br - be) / e2e
	}
	durs := make([]float64, len(residences))
	for i, r := range residences {
		durs[i] = float64(r.end-r.start) / 1e3
	}
	sort.Float64s(durs)
	l.residenceP50, l.residenceP99 = quantile(durs, 0.5), quantile(durs, 0.99)
	return l
}
