// Package route is the shared control-plane core under the four routing
// substrates (aodv, dsr, dsdv, flood). Before it existed each router
// privately reimplemented the same four mechanisms; they now live here
// exactly once:
//
//   - Core: the netif.Protocol surface a router inherits — Send's
//     self-delivery and failure rule, Broadcast, the upper-layer hooks,
//     send-failure reporting — plus the netif.Stats counter block.
//   - DupCache: the TTL-bounded duplicate-suppression cache with one
//     uniform policy (exact expiry at the timeout, deterministic
//     oldest-first eviction at a per-node hard cap), kept for all nodes
//     in one flood-major index on the simulation's Plane.
//   - Bcaster: the paper's controlled broadcast (§5/§7): TTL-limited
//     flood relay with per-node duplicate suppression, protocol side
//     effects delegated to small hooks.
//   - Pending: the per-destination pending-send buffer that parks
//     payloads while a route is discovered (or, for DSDV, settles).
//
// Everything here is deterministic and draws no randomness, and no
// result depends on map iteration order, so a replication built on this
// package is bit-identical to one built on the four private copies it
// replaced (golden fixtures prove it).
package route

import (
	"fmt"

	"manetp2p/internal/netif"
	"manetp2p/internal/radio"
	"manetp2p/internal/sim"
)

// Core is the per-node dispatch half of the control plane. Routers embed
// *Core and inherit the whole netif.Protocol surface plus the delivery
// helpers; a router writes only its protocol, behind Route and its
// Bcaster's hooks.
type Core struct {
	id     int
	plane  *Plane
	Sim    *sim.Sim      // the plane's kernel: the router's clock and timers
	Medium *radio.Medium // the plane's medium, which the router transmits on

	// Count is the unified routing-effort counter block. Shared
	// mechanisms (dispatch, duplicate caches) maintain their counters
	// here; protocol code increments the protocol-specific ones.
	Count netif.Stats

	// Route is the router's half of Send: it carries a payload from this
	// node, which is up, to dst, another node of the medium. Send has
	// already counted the attempt. Set at construction.
	Route func(dst, size int, payload netif.Msg)

	caches []*DupCache // registered for SeenEntries/SeenBound
	bcast  *Bcaster    // the node's controlled broadcast (NewBcaster)

	onUnicast    func(netif.Delivery)
	onBroadcast  func(netif.Delivery)
	onSendFailed func(dst int, payload netif.Msg)

	// selfQ carries self-addressed payloads in FIFO order (one event per
	// Send, so queue position and event order agree).
	selfQ    []netif.Msg
	selfHead int
}

// NewCore creates the dispatch core for node id of pl's simulation.
func NewCore(id int, pl *Plane) *Core {
	if id < 0 || id >= pl.med.NumNodes() {
		// Unreachable from input: manet.Build makes one core per id in [0, NumNodes) on a NumNodes plane.
		panic(fmt.Sprintf("route: node id %d outside the plane's %d nodes", id, pl.med.NumNodes()))
	}
	return &Core{id: id, plane: pl, Sim: pl.sim, Medium: pl.med}
}

// ID returns the node this control plane belongs to.
func (c *Core) ID() int { return c.id }

// RERRScratch returns the buffer a router builds an RERR's destination
// list in. One serves the whole plane: a router fills it and sends it
// in one step, the medium copies the list on Send, and no delivery runs
// inside another, so no two routers hold it at once.
func (c *Core) RERRScratch() *[]netif.Unreachable { return &c.plane.rerr }

// Stats returns the routing-effort counters accumulated so far, DupHits
// with the duplicates the medium settled unhandled (NewDupCache).
func (c *Core) Stats() netif.Stats {
	s := c.Count
	s.DupHits += c.Medium.Stats(c.id).Absorbed
	return s
}

// OnUnicast installs the hook for data addressed to this node.
func (c *Core) OnUnicast(fn func(netif.Delivery)) { c.onUnicast = fn }

// OnBroadcast installs the hook for controlled-broadcast deliveries.
func (c *Core) OnBroadcast(fn func(netif.Delivery)) { c.onBroadcast = fn }

// OnSendFailed installs the hook invoked when a payload is abandoned
// undeliverable.
func (c *Core) OnSendFailed(fn func(dst int, payload netif.Msg)) { c.onSendFailed = fn }

// DeliverUnicast dispatches a unicast arrival to the upper layer.
func (c *Core) DeliverUnicast(from, hops int, payload netif.Msg) {
	c.Count.Delivered++
	if c.onUnicast != nil {
		c.onUnicast(netif.Delivery{From: from, Hops: hops, Payload: payload})
	}
}

// DeliverBroadcast dispatches a controlled-broadcast arrival.
func (c *Core) DeliverBroadcast(from, hops int, payload netif.Msg) {
	c.Count.Delivered++
	if c.onBroadcast != nil {
		c.onBroadcast(netif.Delivery{From: from, Hops: hops, Payload: payload})
	}
}

// FailSend reports a payload abandoned undeliverable. Every fail path in
// every protocol funnels through here, which is what makes the
// fires-exactly-once conformance property and the SendFailed counter
// trustworthy.
func (c *Core) FailSend(dst int, payload netif.Msg) {
	c.Count.SendFailed++
	if c.onSendFailed != nil {
		c.onSendFailed(dst, payload)
	}
}

// Send is netif.Protocol's Send, with its failure rule: no router's
// id-indexed state has a row for an id outside the medium. A payload for
// this node parks in its own FIFO, not boxed into the event, so the
// round trip allocates nothing once the queue is warm. The rest is the
// router's (Route).
func (c *Core) Send(dst, size int, payload netif.Msg) {
	if dst == c.id {
		c.selfQ = append(c.selfQ, payload)
		c.Sim.ScheduleArg(0, selfDeliver, sim.Arg{X: c})
		return
	}
	c.Count.DataSent++
	if !c.Medium.Up(c.id) || dst < 0 || dst >= c.Medium.NumNodes() {
		c.FailSend(dst, payload)
		return
	}
	c.Route(dst, size, payload)
}

// Broadcast is netif.Protocol's Broadcast: the node's Bcaster floods
// payload within ttl hops. A down node transmits nothing.
func (c *Core) Broadcast(ttl, size int, payload netif.Msg) {
	if ttl <= 0 {
		// Unreachable from input: overlay TTLs are NHopsBasic >= 1 (Params.Validate), a nonzero ring radius or randhops >= 1.
		panic("route: Broadcast with non-positive TTL")
	}
	if !c.Medium.Up(c.id) {
		return
	}
	c.bcast.Originate(ttl, size, payload)
}

// selfDeliver hands core X's oldest self-addressed payload up.
func selfDeliver(a sim.Arg) {
	c := a.X.(*Core)
	m := c.selfQ[c.selfHead]
	c.selfQ[c.selfHead] = netif.Msg{}
	c.selfHead++
	if c.selfHead == len(c.selfQ) {
		c.selfQ = c.selfQ[:0]
		c.selfHead = 0
	}
	c.DeliverUnicast(c.id, 0, m)
}

// SeenEntries sums the live marks of every duplicate cache this node
// registered (exact: expired marks are not counted) — the observable
// the cache-bounding tests assert on.
func (c *Core) SeenEntries() int {
	n := 0
	for _, dc := range c.caches {
		n += dc.Len()
	}
	return n
}

// SeenBound returns the summed hard cap across the node's duplicate
// caches (0 with no caches registered) — the ceiling SeenEntries can
// never exceed, whatever traffic arrives.
func (c *Core) SeenBound() int {
	b := 0
	for _, dc := range c.caches {
		b += dc.x.cfg.HardCap
	}
	return b
}
