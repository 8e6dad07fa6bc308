package aodv

import (
	"fmt"

	"manetp2p/internal/netif"
	"manetp2p/internal/sim"
)

// routeEntry is one row of the per-node routing table, packed to 16
// bytes: the expiry, the destination's sequence number and a meta word
// holding the next hop (top 16 bits; node ids are below 2^16), the
// haveSeq and valid flags and a 14-bit hop count. The hop count
// hopEscape stands for "look in the table's bigHops", so every count an
// int32 holds reads back unchanged. The zero entry means "no route,
// nothing known": not valid, no sequence number.
type routeEntry struct {
	validUntil sim.Time
	seq        uint32
	meta       uint32
}

const (
	hopEscape  = 1<<14 - 1 // hop field value: the exact count is in bigHops
	validBit   = 1 << 14
	haveSeqBit = 1 << 15 // seq is meaningful (learned, not guessed)
	nextShift  = 16
)

func (e *routeEntry) valid() bool   { return e.meta&validBit != 0 }
func (e *routeEntry) haveSeq() bool { return e.meta&haveSeqBit != 0 }
func (e *routeEntry) nextHop() int  { return int(e.meta >> nextShift) }

// routeTable holds one entry per destination, indexed by node id (ids
// are dense: 0 to NumNodes−1). Expiry is lazy: lookups treat entries
// past validUntil as invalid.
type routeTable struct {
	entries []routeEntry
	// bigHops holds, by destination, the hop counts outside the meta
	// word's range [0, hopEscape). It is made on the first such count;
	// no run of the reproduction has reached one.
	bigHops []int32
}

func newRouteTable(nodes int) *routeTable {
	if nodes > 1<<16 {
		// Unreachable from input: Scenario.Validate caps NumNodes at 1<<16.
		panic(fmt.Sprintf("aodv: %d nodes overflow a route entry's 16-bit next hop", nodes))
	}
	return &routeTable{entries: make([]routeEntry, nodes)}
}

// get returns the entry for dst and whether it is valid at time now.
func (t *routeTable) get(dst int, now sim.Time) (*routeEntry, bool) {
	e := &t.entries[dst]
	return e, e.valid() && e.validUntil >= now
}

// raw returns the entry regardless of validity (for sequence numbers).
func (t *routeTable) raw(dst int) *routeEntry { return &t.entries[dst] }

// hops returns the hop count of dst's entry.
func (t *routeTable) hops(dst int) int {
	if h := t.entries[dst].meta & hopEscape; h != hopEscape {
		return int(h)
	}
	return int(t.bigHops[dst])
}

// update installs a route to dst if it is fresher (higher seq), or equally
// fresh but shorter, or if no valid route exists. It reports whether the
// table changed.
func (t *routeTable) update(dst, nextHop, hopCount int, seq uint32, haveSeq bool, now, lifetime sim.Time) bool {
	e, currentValid := t.get(dst, now)
	accept := false
	switch {
	case !currentValid:
		accept = true
	case haveSeq && e.haveSeq() && seqGreater(seq, e.seq):
		accept = true
	case haveSeq && e.haveSeq() && seq == e.seq && hopCount < t.hops(dst):
		accept = true
	case haveSeq && !e.haveSeq():
		accept = true
	case !haveSeq && hopCount < t.hops(dst):
		accept = true
	}
	if !accept {
		return false
	}
	meta := uint32(nextHop)<<nextShift | validBit | e.meta&haveSeqBit
	if hops := int32(hopCount); hops >= 0 && hops < hopEscape {
		meta |= uint32(hops)
	} else {
		if t.bigHops == nil {
			t.bigHops = make([]int32, len(t.entries))
		}
		t.bigHops[dst] = hops
		meta |= hopEscape
	}
	if haveSeq {
		// Never move a sequence number backwards.
		if !e.haveSeq() || seqGreater(seq, e.seq) || seq == e.seq {
			e.seq = seq
		}
		meta |= haveSeqBit
	}
	e.meta = meta
	e.validUntil = now + lifetime
	return true
}

// refresh extends the lifetime of an existing valid route (route used).
func (t *routeTable) refresh(dst int, now, lifetime sim.Time) {
	if e, ok := t.get(dst, now); ok {
		e.validUntil = now + lifetime
	}
}

// invalidate marks the route to dst broken and bumps its sequence number
// so stale information cannot resurrect it. It reports the entry's last
// sequence number (for RERR) and whether a valid route was actually torn
// down.
func (t *routeTable) invalidate(dst int, now sim.Time) (uint32, bool) {
	e, wasValid := t.get(dst, now)
	e.meta &^= validBit
	if e.haveSeq() {
		e.seq++
	}
	return e.seq, wasValid
}

// invalidateVia tears down all valid routes whose next hop is via and
// appends the affected destinations to out (in id order, so identical
// runs emit identical RERRs) with their bumped sequence numbers.
func (t *routeTable) invalidateVia(out []netif.Unreachable, via int, now sim.Time) []netif.Unreachable {
	for dst := range t.entries {
		if e, ok := t.get(dst, now); ok && e.nextHop() == via {
			seq, _ := t.invalidate(dst, now)
			out = append(out, netif.Unreachable{Dst: dst, Seq: seq})
		}
	}
	return out
}

// seqGreater compares sequence numbers with wraparound (RFC 3561 §6.1).
func seqGreater(a, b uint32) bool { return int32(a-b) > 0 }
