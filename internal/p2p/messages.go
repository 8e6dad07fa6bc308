package p2p

import (
	"manetp2p/internal/netif"
	"manetp2p/internal/telemetry"
)

// Msg is the overlay message: netif's value-typed tagged union. It
// crosses the network interface by value, so sending, relaying, and
// delivering a message never boxes it onto the heap.
type Msg = netif.Msg

// The kind constants alias netif's, named after the message they tag so
// protocol code reads the way the paper does. The overlay vocabulary:
//
//   - msgDiscover: the Basic algorithm's discovery broadcast.
//   - msgReply: the Basic algorithm's answer to a discover — "every
//     node that listens to this message answers it" (§6.1.1). Receipt
//     immediately creates an asymmetric reference at the discoverer.
//   - msgSolicit: the Regular/Random establishment broadcast ("looking
//     for establishing connections", §6.1.3). Rand marks the Random
//     algorithm's long-link solicitation; for the Hybrid algorithm,
//     masters solicit other masters with MasterOnly set.
//   - msgOffer: opens the three-way handshake — the responder is
//     willing to form a symmetric connection. Hops echoes how many
//     ad-hoc hops the solicitation traveled, which the Random algorithm
//     uses to pick the farthest responder.
//   - msgAccept: the solicitor's second handshake step, committing a
//     slot (Master when connecting as a hybrid master).
//   - msgConfirm: the responder's final handshake step; on receipt both
//     ends consider the symmetric connection established.
//   - msgReject: aborts a handshake whose responder ran out of
//     capacity.
//   - msgCapture: the Hybrid algorithm's discovery message carrying the
//     sender's Qualifier (§6.2). Reply=false for the initial broadcast;
//     a higher-qualified receiver answers with Reply=true.
//   - msgEnslaveReq/Accept/Confirm/Reject: the enslave handshake — a
//     node asks a better-qualified master (Qualifier) to adopt it.
//   - msgPing/msgPong: the keepalive pair; Seq matches pongs to pings.
//   - msgBye: a best-effort teardown notice so the remote side need not
//     wait for a keepalive timeout. The paper relies on timeouts alone;
//     Bye is an optimization that does not affect the counted classes.
//   - msgQuery: a Gnutella-style file search flooded over overlay links
//     (§7.2): TTL-limited, forwarded at most once per node, never back
//     to the sender or the original requirer. Origin is the requirer,
//     Seq the per-origin query id for duplicate suppression, File the
//     requested rank, Hops the overlay hops traveled so far, Walk the
//     random-walk propagation mode.
//   - msgQueryHit: sent directly (ad-hoc unicast) to the requirer by a
//     node holding the file; Seq echoes the query id, Hops the overlay
//     hops the query traveled to reach Holder.
//   - msgFetchReq/msgChunk: the optional download extension's transfer
//     pair (see download.go).
const (
	msgDiscover       = netif.MsgDiscover
	msgReply          = netif.MsgReply
	msgSolicit        = netif.MsgSolicit
	msgOffer          = netif.MsgOffer
	msgAccept         = netif.MsgAccept
	msgConfirm        = netif.MsgConfirm
	msgReject         = netif.MsgReject
	msgCapture        = netif.MsgCapture
	msgEnslaveReq     = netif.MsgEnslaveReq
	msgEnslaveAccept  = netif.MsgEnslaveAccept
	msgEnslaveConfirm = netif.MsgEnslaveConfirm
	msgEnslaveReject  = netif.MsgEnslaveReject
	msgPing           = netif.MsgPing
	msgPong           = netif.MsgPong
	msgBye            = netif.MsgBye
	msgQuery          = netif.MsgQuery
	msgQueryHit       = netif.MsgQueryHit
	msgFetchReq       = netif.MsgFetchReq
	msgChunk          = netif.MsgChunk
)

// wire gives each kind's counting class (§7) and nominal size in bytes
// for traffic/energy accounting, indexed by kind — one bounds check and
// one load on the hot send path, where the old any-typed type switches
// boxed every message they touched. Size 0 marks a kind that is not a
// wire message (MsgNone, MsgTest, or a newly added kind without an
// entry): classOf and sizeOf panic on it exactly like the switches'
// default arms did; the coverage test in messages_test.go keeps the
// table and the kind enum in sync.
var wire = [netif.NumMsgKinds]struct {
	class telemetry.Class
	size  int
}{
	msgDiscover:       {telemetry.Connect, 16},
	msgReply:          {telemetry.Connect, 12},
	msgSolicit:        {telemetry.Connect, 16},
	msgOffer:          {telemetry.Connect, 16},
	msgAccept:         {telemetry.Connect, 12},
	msgConfirm:        {telemetry.Connect, 12},
	msgReject:         {telemetry.Connect, 12},
	msgCapture:        {telemetry.Connect, 16},
	msgEnslaveReq:     {telemetry.Connect, 12},
	msgEnslaveAccept:  {telemetry.Connect, 12},
	msgEnslaveConfirm: {telemetry.Connect, 12},
	msgEnslaveReject:  {telemetry.Connect, 12},
	msgPing:           {telemetry.Ping, 8},
	msgPong:           {telemetry.Pong, 8},
	msgBye:            {telemetry.Bye, 8},
	msgQuery:          {telemetry.Query, 24},
	msgQueryHit:       {telemetry.QueryHit, 20},
	msgFetchReq:       {telemetry.Transfer, 12},
	msgChunk:          {telemetry.Transfer, 512}, // a file payload chunk on the air
}

// classOf maps a message kind to the paper's counting classes.
func classOf(k netif.MsgKind) telemetry.Class {
	if int(k) >= netif.NumMsgKinds || wire[k].size == 0 {
		panic("p2p: unclassified message")
	}
	return wire[k].class
}

// sizeOf returns the nominal wire size of a message kind.
func sizeOf(k netif.MsgKind) int {
	if int(k) >= netif.NumMsgKinds || wire[k].size == 0 {
		panic("p2p: unsized message")
	}
	return wire[k].size
}
