// Package route is the shared control-plane core under the four routing
// substrates (aodv, dsr, dsdv, flood). Before it existed each router
// privately reimplemented the same four mechanisms; they now live here
// exactly once:
//
//   - Core: the delivery-dispatch path — upper-layer hooks, asynchronous
//     self-delivery, send-failure reporting — plus the netif.Stats
//     counter block.
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
	"manetp2p/internal/sim"
)

// Core is the per-node dispatch half of the control plane. Routers embed
// *Core and inherit the netif.Protocol hook surface (ID, OnUnicast,
// OnBroadcast, OnSendFailed, Stats) plus the delivery helpers.
type Core struct {
	id    int
	sim   *sim.Sim
	plane *Plane

	// Count is the unified routing-effort counter block. Shared
	// mechanisms (dispatch, duplicate caches) maintain their counters
	// here; protocol code increments the protocol-specific ones.
	Count netif.Stats

	caches []*DupCache // registered for SeenEntries/SeenBound

	onUnicast    func(netif.Delivery)
	onBroadcast  func(netif.Delivery)
	onSendFailed func(dst int, payload netif.Msg)

	// Bound once at construction so self-delivery schedules without a
	// per-call closure allocation; selfQ carries the payloads in FIFO
	// order (one Schedule per SelfDeliver, so queue position and event
	// order agree).
	selfDeliverFn func()
	selfQ         []netif.Msg
	selfHead      int
}

// NewCore creates the dispatch core for node id of pl's simulation.
func NewCore(id int, pl *Plane) *Core {
	if id < 0 || id >= pl.nodes {
		// Unreachable from input: manet.Build makes one core per id in [0, NumNodes) on a NumNodes plane.
		panic(fmt.Sprintf("route: node id %d outside the plane's %d nodes", id, pl.nodes))
	}
	c := &Core{id: id, sim: pl.sim, plane: pl}
	c.selfDeliverFn = c.selfDeliver
	return c
}

// ID returns the node this control plane belongs to.
func (c *Core) ID() int { return c.id }

// Now returns the current simulated time.
func (c *Core) Now() sim.Time { return c.sim.Now() }

// Stats returns the routing-effort counters accumulated so far.
func (c *Core) Stats() netif.Stats { return c.Count }

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

// SelfDeliver completes a Send addressed to this node on the next
// event-loop turn, like every remote delivery: asynchronously. The
// payload parks in the node's own FIFO instead of boxing into the
// event, so the schedule-and-fire round trip allocates nothing once
// the queue's backing array is warm.
func (c *Core) SelfDeliver(payload netif.Msg) {
	c.selfQ = append(c.selfQ, payload)
	c.sim.Schedule(0, c.selfDeliverFn)
}

func (c *Core) selfDeliver() {
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
