package checkpoint

import (
	"math"

	"manetp2p/internal/manet"
	"manetp2p/internal/p2p"
	"manetp2p/internal/telemetry"
)

// Fingerprint folds a replication's observable state into one 64-bit
// FNV-1a digest: the scheduler position, every node's radio and energy
// state, every servent's protocol state (connections, handshakes, peer
// cache, hybrid role, counters), routing-effort counters, the collected
// measurements, the workload ledger, churn progress and the live fault
// gates.
//
// The digest is the determinism self-audit's oracle (SelfAudit in the
// root package, its one production caller): a replication stepped to
// the horizon in segments must end in exactly the state of one run
// there straight. Any source of nondeterminism (a map-iteration-order
// decision, an untracked RNG draw) or any way segmenting perturbs a run
// lands here as a digest mismatch instead of a silently diverged result.
//
// Fingerprint only reads: it draws no randomness, schedules nothing,
// and iterates everything in fixed (id or insertion) order, so calling
// it cannot perturb the replication it measures.
func Fingerprint(n *manet.Network) uint64 {
	var d digest
	d.init()

	// Scheduler position. Fired+Seq pin the event history, Pending the
	// queue population (lazily-cancelled entries included — their count
	// is itself deterministic).
	d.u64(uint64(n.Sim.Now()))
	d.u64(n.Sim.Fired())
	d.u64(n.Sim.Seq())
	d.u64(uint64(n.Sim.Pending()))

	// Radio medium: per-node liveness, position, traffic and energy.
	nodes := n.Medium.NumNodes()
	d.u64(uint64(nodes))
	d.u64(uint64(n.Medium.InFlight()))
	inflight := n.Medium.InFlightTo(nil)
	for i := 0; i < nodes; i++ {
		d.bool(n.Medium.Up(i))
		p := n.Medium.Pos(i)
		d.f64(p.X)
		d.f64(p.Y)
		st := n.Medium.Stats(i)
		d.u64(st.TxFrames)
		d.u64(st.RxFrames)
		d.u64(st.TxBytes)
		d.u64(st.RxBytes)
		d.u64(st.Dropped)
		d.u64(st.Gated)
		d.u64(st.Queued)
		d.u64(st.LostDown)
		tx, rx := n.Medium.Battery(i).Spent()
		d.f64(tx)
		d.f64(rx)
		d.u64(inflight[i])
	}

	// Routing substrate: the unified effort counters.
	for i := range n.Routers {
		st := n.Routers[i].Stats()
		d.u64(st.CtrlOrig)
		d.u64(st.CtrlRelayed)
		d.u64(st.BcastOrig)
		d.u64(st.BcastRelayed)
		d.u64(st.DataSent)
		d.u64(st.DataForwarded)
		d.u64(st.DataDropped)
		d.u64(st.Delivered)
		d.u64(st.Discoveries)
		d.u64(st.DiscoverFailed)
		d.u64(st.SendFailed)
		d.u64(st.DupHits)
	}

	// Overlay: the full structural view of every servent, in id order.
	var v p2p.View
	for _, sv := range n.Servents {
		if sv == nil {
			d.u64(0xA5)
			continue
		}
		sv.Inspect(&v)
		d.bool(v.Joined)
		d.u64(uint64(v.State))
		d.i64(int64(v.ReservedWith))
		d.bool(v.ReservedArmed)
		d.i64(int64(v.NHops))
		d.u64(uint64(v.Timer))
		d.bool(v.CycleRunning)
		d.bool(v.Collecting)
		d.u64(uint64(v.Offers))
		d.u64(uint64(v.NextQID))
		d.bool(v.OpenQuery)
		d.u64(v.Established)
		d.u64(v.Closed)
		d.u64(v.Downloads)
		d.u64(uint64(v.SeenQueries))
		d.u64(uint64(len(v.Conns)))
		for _, c := range v.Conns {
			d.i64(int64(c.Peer))
			d.bool(c.Random)
			d.bool(c.Initiator)
			d.bool(c.ToMaster)
			d.bool(c.ToSlave)
			d.bool(c.Master)
			d.u64(uint64(c.Since))
			d.bool(c.PingArmed)
			d.bool(c.DeadlineArmed)
		}
		d.u64(uint64(len(v.Pending)))
		for _, h := range v.Pending {
			d.i64(int64(h.Peer))
			d.bool(h.Random)
			d.bool(h.Master)
			d.bool(h.TimeoutArmed)
		}
		d.u64(uint64(len(v.Cache)))
		for _, e := range v.Cache {
			d.i64(int64(e.Peer))
			d.u64(uint64(e.Seen))
			d.u64(uint64(e.Tried))
			d.bool(e.HasTried)
		}
	}

	// Collected measurements so far.
	col := n.Collector
	for node := 0; node < col.NumNodes(); node++ {
		for c := 0; c < telemetry.NumClasses; c++ {
			d.u64(col.Received(node, telemetry.Class(c)))
		}
	}
	for c := 0; c < telemetry.NumClasses; c++ {
		series := col.Series(telemetry.Class(c))
		d.u64(uint64(len(series)))
		for _, v := range series {
			d.u64(v)
		}
	}
	reqs := col.Requests()
	d.u64(uint64(len(reqs)))
	for _, r := range reqs {
		d.i64(int64(r.Node))
		d.i64(int64(r.File))
		d.i64(int64(r.Answers))
		d.i64(int64(r.MinP2P))
		d.i64(int64(r.MinAdhoc))
		d.bool(r.Found)
	}
	lifetimes := col.Lifetimes()
	d.u64(uint64(len(lifetimes)))
	for _, v := range lifetimes {
		d.f64(v)
	}
	health := col.Health()
	d.u64(uint64(len(health)))
	for _, h := range health {
		d.u64(uint64(h.At))
		d.f64(h.LargestComp)
		d.i64(int64(h.Links))
		for _, r := range h.Received {
			d.u64(r)
		}
	}

	// Workload ledger, churn progress, live fault gates.
	if n.Demand != nil {
		c := n.Demand.Counters()
		d.u64(c.Offered)
		d.u64(c.Retries)
		d.u64(c.Issued)
		d.u64(c.Resolved)
		d.u64(c.Expired)
		d.u64(c.Aborted)
		d.u64(c.InFlight)
		d.u64(c.Pending)
		d.u64(c.BoundsViol)
	}
	d.u64(n.ChurnEvents())
	if n.Injector != nil {
		parts, jams, bursts, flaps := n.Injector.ActiveGates()
		d.i64(int64(parts))
		d.i64(int64(jams))
		d.i64(int64(bursts))
		d.i64(int64(flaps))
	}
	return d.h
}

// digest is FNV-1a 64, fed fixed-width little-endian words so the hash
// is byte-for-byte reproducible across platforms and Go versions.
type digest struct{ h uint64 }

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func (d *digest) init() { d.h = fnvOffset }

func (d *digest) u64(v uint64) {
	for i := 0; i < 8; i++ {
		d.h ^= v & 0xff
		d.h *= fnvPrime
		v >>= 8
	}
}

func (d *digest) i64(v int64) { d.u64(uint64(v)) }

func (d *digest) f64(v float64) { d.u64(math.Float64bits(v)) }

func (d *digest) bool(v bool) {
	if v {
		d.u64(1)
	} else {
		d.u64(0)
	}
}
