package route

import (
	"manetp2p/internal/sim"
)

// Discovery is the per-destination pending-send state: the packets
// parked awaiting a route plus whatever search is underway for it. The
// on-demand protocols use TTL/Retries/Repair/Timer to drive their
// expanding-ring or fixed-TTL searches; DSDV parks packets with no
// search at all (advertisements bring the route or the settling window
// lapses), so for it only Queue is live — the zero Timer's Cancel is a
// safe no-op.
type Discovery[P any] struct {
	TTL     int
	Retries int
	Repair  bool // bounded transit-packet repair: no ring escalation
	Timer   sim.Handle
	Queue   []P
}

// Pending is the per-node pending-send buffer: one Discovery per
// destination, with a shared per-destination queue cap. The three
// protocols that buffer (aodv, dsr, dsdv) previously each kept their
// own map-plus-cap logic; the overflow/flush/abandon choreography now
// lives here once, while the protocol decides what each outcome means
// (fail the send, emit an RERR, count a drop).
//
// Entries are recycled with their queue capacity: Take retires an entry
// and Recycle returns it once the caller has flushed its queue, so a
// steady stream of discoveries allocates nothing.
type Pending[P any] struct {
	m    map[int]*Discovery[P]
	cap  int
	free []*Discovery[P]
}

// NewPending creates a buffer holding at most bufferCap packets per
// destination.
func NewPending[P any](bufferCap int) *Pending[P] {
	return &Pending[P]{m: make(map[int]*Discovery[P]), cap: bufferCap}
}

// Get returns the in-progress entry for dst, if any.
func (p *Pending[P]) Get(dst int) (*Discovery[P], bool) {
	d, ok := p.m[dst]
	return d, ok
}

// Start registers a fresh entry for dst, a recycled one if there is
// one. The caller kicks whatever search it implies (AODV's first ring,
// DSR's RREQ) — ordering matters to some protocols, so Pending stays out
// of it.
func (p *Pending[P]) Start(dst int) *Discovery[P] {
	var d *Discovery[P]
	if n := len(p.free); n > 0 {
		d = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		d = &Discovery[P]{}
	}
	p.m[dst] = d
	return d
}

// Push appends pkt to d's queue; false means the queue is at cap and
// the packet must be abandoned.
func (p *Pending[P]) Push(d *Discovery[P], pkt P) bool {
	if len(d.Queue) >= p.cap {
		return false
	}
	d.Queue = append(d.Queue, pkt)
	return true
}

// Current reports whether d is still the live entry for dst — the
// identity check retry timers use to detect they were superseded.
func (p *Pending[P]) Current(dst int, d *Discovery[P]) bool {
	return p.m[dst] == d
}

// Take removes and returns dst's entry with its retry timer cancelled,
// so no timer names it again, ready for the caller to flush the queue
// and then Recycle it. Flushing can re-enter Start for dst (a FailSend
// that leads to a new Send); that entry is a different one.
func (p *Pending[P]) Take(dst int) (*Discovery[P], bool) {
	d, ok := p.m[dst]
	if !ok {
		return nil, false
	}
	delete(p.m, dst)
	d.Timer.Cancel()
	return d, true
}

// Recycle returns an entry Take retired, once the caller is done with
// its queue, for a later Start to reuse.
func (p *Pending[P]) Recycle(d *Discovery[P]) {
	clear(d.Queue)
	*d = Discovery[P]{Queue: d.Queue[:0]}
	p.free = append(p.free, d)
}
