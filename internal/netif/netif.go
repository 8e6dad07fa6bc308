// Package netif defines the network-layer interface between the p2p
// overlay and the routing protocols beneath it. The paper runs its
// overlay over AODV, chosen after a companion routing-protocol study
// (Oliveira/Siqueira/Loureiro, cited as [13]); this interface lets the
// reproduction swap routing substrates — AODV, DSR, or plain flooding —
// and repeat that comparison under the same overlay workload.
package netif

// Delivery is an upper-layer arrival: who originated the message, how
// many ad-hoc hops it traveled, and the payload.
type Delivery struct {
	From    int
	Hops    int
	Payload Msg
}

// Stats is the unified routing-effort counter block every Protocol
// implements — the contract that lets a cross-protocol sweep compare
// what the routing layer spent, not just what the overlay received.
// Counters are per node and cumulative over a replication.
//
// "Control" frames are the protocol's own signalling (RREQ/RREP/RERR,
// DSDV table advertisements); the paper's controlled broadcast is
// counted separately because it carries overlay payloads. "Orig" counts
// frames this node put on the air first; "Relayed" counts
// re-transmissions on behalf of other nodes. DataSent counts every
// locally originated unicast attempt, including ones later buffered and
// abandoned, so SendFailed ≤ DataSent holds per node.
type Stats struct {
	CtrlOrig       uint64 // protocol control frames originated
	CtrlRelayed    uint64 // protocol control frames re-forwarded
	BcastOrig      uint64 // controlled broadcasts originated
	BcastRelayed   uint64 // controlled broadcasts re-forwarded
	DataSent       uint64 // locally originated data packets (attempts)
	DataForwarded  uint64 // transit data packets relayed
	DataDropped    uint64 // data abandoned: no route, TTL exhausted, overflow
	Delivered      uint64 // upper-layer deliveries dispatched (unicast + broadcast)
	Discoveries    uint64 // route discoveries started (0 for proactive protocols)
	DiscoverFailed uint64 // discoveries abandoned after all retries
	SendFailed     uint64 // payloads reported undeliverable to the overlay
	DupHits        uint64 // duplicate-cache suppressions
}

// Frames returns the total frames this node put on the air, origination
// and relay combined — the denominator of air-time effort comparisons.
func (s Stats) Frames() uint64 {
	return s.CtrlOrig + s.CtrlRelayed + s.BcastOrig + s.BcastRelayed +
		s.DataSent + s.DataForwarded
}

// Add accumulates other into s, for network-wide totals.
func (s *Stats) Add(other Stats) {
	s.CtrlOrig += other.CtrlOrig
	s.CtrlRelayed += other.CtrlRelayed
	s.BcastOrig += other.BcastOrig
	s.BcastRelayed += other.BcastRelayed
	s.DataSent += other.DataSent
	s.DataForwarded += other.DataForwarded
	s.DataDropped += other.DataDropped
	s.Delivered += other.Delivered
	s.Discoveries += other.Discoveries
	s.DiscoverFailed += other.DiscoverFailed
	s.SendFailed += other.SendFailed
	s.DupHits += other.DupHits
}

// Protocol is the per-node network layer the overlay talks to.
type Protocol interface {
	// ID returns the node this protocol instance belongs to.
	ID() int
	// Send routes an application payload of the given nominal size to
	// dst, discovering a route on demand if the protocol needs one.
	Send(dst, size int, payload Msg)
	// Broadcast floods the payload to every node within ttl ad-hoc hops.
	Broadcast(ttl, size int, payload Msg)
	// OnUnicast installs the hook for data addressed to this node.
	OnUnicast(fn func(Delivery))
	// OnBroadcast installs the hook for flood deliveries.
	OnBroadcast(fn func(Delivery))
	// OnSendFailed installs the hook invoked when a payload is
	// abandoned undeliverable.
	OnSendFailed(fn func(dst int, payload Msg))
	// Stats returns the routing-effort counters accumulated so far.
	Stats() Stats
}
