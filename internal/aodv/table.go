package aodv

import (
	"manetp2p/internal/netif"
	"manetp2p/internal/sim"
)

// routeEntry is one row of the per-node routing table, packed to 24
// bytes. The zero entry means "no route, nothing known": not valid, no
// sequence number.
type routeEntry struct {
	validUntil sim.Time
	seq        uint32
	nextHop    int32
	hopCount   int32
	valid      bool
	haveSeq    bool // seq is meaningful (learned, not guessed)
}

// routeTable holds one entry per destination, indexed by node id (ids
// are dense: 0 to NumNodes−1). Expiry is lazy: lookups treat entries
// past validUntil as invalid.
type routeTable struct {
	entries []routeEntry
}

func newRouteTable(nodes int) *routeTable {
	return &routeTable{entries: make([]routeEntry, nodes)}
}

// get returns the entry for dst and whether it is valid at time now.
func (t *routeTable) get(dst int, now sim.Time) (*routeEntry, bool) {
	e := &t.entries[dst]
	return e, e.valid && e.validUntil >= now
}

// raw returns the entry regardless of validity (for sequence numbers).
func (t *routeTable) raw(dst int) *routeEntry { return &t.entries[dst] }

// update installs a route to dst if it is fresher (higher seq), or equally
// fresh but shorter, or if no valid route exists. It reports whether the
// table changed.
func (t *routeTable) update(dst, nextHop, hopCount int, seq uint32, haveSeq bool, now, lifetime sim.Time) bool {
	e, currentValid := t.get(dst, now)
	accept := false
	switch {
	case !currentValid:
		accept = true
	case haveSeq && e.haveSeq && seqGreater(seq, e.seq):
		accept = true
	case haveSeq && e.haveSeq && seq == e.seq && hopCount < int(e.hopCount):
		accept = true
	case haveSeq && !e.haveSeq:
		accept = true
	case !haveSeq && hopCount < int(e.hopCount):
		accept = true
	}
	if !accept {
		return false
	}
	e.nextHop = int32(nextHop)
	e.hopCount = int32(hopCount)
	if haveSeq {
		// Never move a sequence number backwards.
		if !e.haveSeq || seqGreater(seq, e.seq) || seq == e.seq {
			e.seq = seq
		}
		e.haveSeq = true
	}
	e.validUntil = now + lifetime
	e.valid = true
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
	e.valid = false
	if e.haveSeq {
		e.seq++
	}
	return e.seq, wasValid
}

// invalidateVia tears down all valid routes whose next hop is via and
// appends the affected destinations to out (in id order, so identical
// runs emit identical RERRs) with their bumped sequence numbers.
func (t *routeTable) invalidateVia(out []netif.Unreachable, via int, now sim.Time) []netif.Unreachable {
	for dst := range t.entries {
		if e, ok := t.get(dst, now); ok && int(e.nextHop) == via {
			seq, _ := t.invalidate(dst, now)
			out = append(out, netif.Unreachable{Dst: dst, Seq: seq})
		}
	}
	return out
}

// seqGreater compares sequence numbers with wraparound (RFC 3561 §6.1).
func seqGreater(a, b uint32) bool { return int32(a-b) > 0 }
