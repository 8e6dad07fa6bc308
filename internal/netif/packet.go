package netif

// PacketKind discriminates the router frame union: what a routing
// protocol actually puts on the air. Control kinds are shared across
// protocols where the shape coincides (an AODV RREQ and a DSR RREQ are
// both PktRREQ; the protocol owning the Medium decides the semantics),
// which keeps the union small and the per-hop path allocation-free.
type PacketKind uint8

const (
	// PktNone is the zero value: no packet. Seeing it on the air is a
	// programming error.
	PktNone PacketKind = iota
	// PktBcast is the controlled-broadcast relay frame (route.Bcaster):
	// an overlay message flooded with duplicate suppression and a TTL.
	PktBcast
	// PktData is a unicast data frame carrying an overlay message.
	PktData
	// PktRREQ is a route request (AODV expanding ring, DSR source
	// route collection — Path accumulates the traversed route).
	PktRREQ
	// PktRREP is a route reply.
	PktRREP
	// PktRERR is a route error reporting broken links or lost
	// destinations.
	PktRERR
	// PktUpdate is a DSDV full-table advertisement.
	PktUpdate
	// NumPacketKinds bounds kind-indexed tables.
	NumPacketKinds int = iota
)

// Unreachable names one lost destination in a PktRERR, with the
// sender's last known sequence number for it.
type Unreachable struct {
	Dst int
	Seq uint32
}

// AdvEntry is one row of a PktUpdate table advertisement.
type AdvEntry struct {
	Dst    int
	Metric int
	Seq    uint32
}

// Packet is the router frame: a value-typed tagged union of every
// protocol's control and data frames. radio.Frame embeds it, the medium
// stores that frame once per transmission, and every receiver is handed
// a pointer to the stored copy: a receive handler reads through the
// pointer and copies the Packet (one struct assignment, no allocation)
// only when it keeps, edits or relays it. The medium copies the slices
// into storage it owns when the frame is sent, so a sender builds them
// in scratch it reuses at its next send; on the receiving side they are
// valid only during the callback, and a receiver that keeps a packet
// copies its slices. Nobody writes them in place — extending Path means
// building the longer path in the relay's own storage. Only the fields
// of the active Kind are meaningful.
//
// Field use by kind:
//
//	PktBcast:  Origin, OriginSeq, ID, HopCount, TTL, Size, Path (DSR
//	           route accumulation), Msg
//	PktData:   Origin, Dst, TTL|Pos+Path, HopCount, Size, Msg
//	PktRREQ:   Origin, Dst, ID|OriginSeq+DstSeq, HopCount, TTL, Path
//	PktRREP:   Origin, Dst, DstSeq, HopCount, Path, Pos
//	PktRERR:   Unreachable (AODV) or Origin, BadA, BadB, Path, Pos (DSR)
//	PktUpdate: Origin, Entries
type Packet struct {
	Kind PacketKind

	Origin    int    // originating node
	Dst       int    // unicast destination / requested destination
	ID        uint32 // per-origin frame id (bcast, rreq)
	OriginSeq uint32 // origin's sequence number
	DstSeq    uint32 // destination sequence number (AODV)
	HopCount  int    // hops traveled so far
	TTL       int    // remaining hops
	Pos       int    // source-route cursor (DSR)
	Size      int    // nominal payload size in bytes
	BadA      int    // broken link endpoints (DSR RERR)
	BadB      int

	Path        []int         // source route / traversed route
	Unreachable []Unreachable // lost destinations (AODV RERR)
	Entries     []AdvEntry    // table advertisement rows (DSDV)

	Msg Msg // overlay payload (bcast, data)
}
