// Package radio models the wireless medium as a unit-disc graph: two
// nodes can exchange link-layer frames iff their distance is at most the
// transmission range (the paper uses 10 m). Frames are delivered after a
// small per-hop latency with optional jitter and loss, and every transmit
// and receive debits the sender's/receiver's battery, which is what makes
// the paper's message-count metrics proxies for network lifetime. Who
// hears whom is asked of the spatial grid once per movement, not once per
// transmission (Medium.neighbourList).
//
// The medium deliberately omits MAC-level contention and capture effects:
// the paper's metrics are message counts and hop distances, which are
// insensitive to MAC timing (see EXPERIMENTS.md, substitutions).
package radio

import (
	"fmt"
	"math/rand"

	"manetp2p/internal/geom"
	"manetp2p/internal/netif"
	"manetp2p/internal/sim"
)

// BroadcastAddr addresses a frame to every node in range of the sender.
const BroadcastAddr = -1

// Frame is one link-layer transmission unit. Send takes it by value and
// the medium stores it once per transmission, however many nodes hear
// it, with its payload's slices copied into buffers the medium owns;
// receivers are handed a pointer to that one stored copy.
type Frame struct {
	Src     int          // transmitting node
	Dst     int          // receiving node or BroadcastAddr
	Size    int          // bytes on air, for energy/traffic accounting
	Payload netif.Packet // upper-layer packet; never inspected by the medium
}

// Receiver is the upper-layer hook invoked on frame arrival. The frame
// is the medium's single stored copy of the transmission, shared by
// every node that hears it, and must not be modified, including the
// slices inside its payload. It is valid only for the duration of the
// callback, and so are those slices: the medium overwrites them with -1
// and reuses their storage once the last receiver has returned. A
// receiver that keeps a packet copies its slices; one that relays it
// may pass them to Send unchanged, or build the new ones in storage of
// its own.
type Receiver func(f *Frame)

// LinkFilter vets each would-be frame delivery; returning true drops it
// (counted in the receiver's Gated stat). Installed by the fault
// injector to gate links (partitions, flaps) or to stack extra loss
// (jamming, loss bursts) on top of the medium's own LossProb.
type LinkFilter func(src, dst int) bool

// Config sets the physical parameters of the medium.
type Config struct {
	Arena    geom.Rect // simulation area
	Range    float64   // transmission range, metres
	NumNodes int       // node IDs are [0, NumNodes)
	Latency  sim.Time  // fixed per-hop delivery delay
	Jitter   sim.Time  // extra uniform [0, Jitter] per delivery
	LossProb float64   // independent per-delivery drop probability
	Energy   EnergyConfig
}

// Validate reports a descriptive error for out-of-range parameters.
func (c Config) Validate() error {
	switch {
	case c.Arena.W <= 0 || c.Arena.H <= 0:
		return fmt.Errorf("radio: arena %vx%v not positive", c.Arena.W, c.Arena.H)
	case c.Range <= 0:
		return fmt.Errorf("radio: range %v not positive", c.Range)
	case c.NumNodes <= 0:
		return fmt.Errorf("radio: NumNodes %d not positive", c.NumNodes)
	case c.Latency < 0 || c.Jitter < 0:
		return fmt.Errorf("radio: negative latency/jitter")
	case c.LossProb < 0 || c.LossProb >= 1:
		return fmt.Errorf("radio: loss probability %v outside [0,1)", c.LossProb)
	}
	return nil
}

// Stats aggregates per-node medium usage. The counters satisfy a
// conservation law the invariant checker validates: every delivery
// attempted toward a node is gated, dropped, or queued, and every queued
// delivery is received, lost to the receiver being down, or still in
// flight — Queued == RxFrames + LostDown + in-flight.
type Stats struct {
	TxFrames uint64
	RxFrames uint64
	TxBytes  uint64
	RxBytes  uint64
	Dropped  uint64 // deliveries lost to LossProb
	Gated    uint64 // deliveries dropped by the installed LinkFilter
	Queued   uint64 // deliveries queued toward this node (post-gate, post-loss)
	LostDown uint64 // queued deliveries that arrived while the node was down
	Absorbed uint64 // of RxFrames, receptions settled without a callback (see Inert)
}

// Medium is the shared wireless channel. Not safe for concurrent use;
// one Medium belongs to one Sim.
type Medium struct {
	cfg  Config
	sim  *sim.Sim
	grid *geom.Grid
	rng  *rand.Rand
	jrng *rand.Rand

	recv    []Receiver
	filter  LinkFilter
	up      []bool
	stats   []Stats
	battery []*Battery
	onDeath func(id int)

	// Neighbour table, derived state: nbrs[id] is grid.Near's output for id
	// at topology epoch stamp[id] (0 = never filled; topo starts at 1).
	// Join, Leave and every SetPos that moves a node bump topo.
	topo  uint64
	nbrs  [][]nbr
	stamp []uint64
	near  []int  // fill's query buffer
	fills uint64 // lists filled; read by tests

	// In-flight state. Pending receptions sit in a timing wheel that the
	// simulator merges into its run loop (the medium is the Sim's
	// Source): each reception reserves a global sequence number at the
	// moment a per-frame event would have been scheduled, so the
	// interleaving with independently scheduled events is that of one
	// event per reception. The frame itself is stored once per
	// transmission in the slab, counted by its queued receptions.
	wheel wheel
	slab  frameSlab
	epoch []uint32 // per node, bumped by Join; see Leave

	// Held receptions (Inert): held[heldHead:], in transmit order; min ≤ its earliest key.
	absorb   func(*Frame) Inert
	held     []rec
	heldHead int
	min      rec
	trail    []trail // per node, for Inert's second rule

	audit *auditScratch // Audit's scratch; nil until the first Audit
}

// Inert answers, once per transmission, which receptions only count a
// duplicate: a copy to a node other than Skip is held off the wheel, its
// callback never run, if the node is in Set and it arrives before Until,
// or if it trails (arrives no earlier than) a copy in flight with the
// same Token to the node, queued under the same join epoch while the node
// was not in Set, and arrives before Fresh. Unabsorb undoes a hold.
type Inert struct {
	Set   []uint64 // node bitset, bit id&63 of word id>>6; read during the Send only
	Until sim.Time
	Fresh sim.Time
	Skip  int    // never held: the node that ignores the frame outright (its origin)
	Token uint64 // names the frame's flood; nonzero
}

// trail is the earliest in-flight copy of one flood queued to a node
// that did not yet hold it.
type trail struct {
	rec
	token uint64
}

// NewMedium creates the medium; all nodes start down (not placed) until
// Join is called for them.
func NewMedium(s *sim.Sim, cfg Config) (*Medium, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Medium{
		cfg:     cfg,
		sim:     s,
		grid:    geom.NewGrid(cfg.Arena, cfg.Range, cfg.NumNodes),
		rng:     s.NewRand(),
		jrng:    s.NewRand(),
		recv:    make([]Receiver, cfg.NumNodes),
		up:      make([]bool, cfg.NumNodes),
		stats:   make([]Stats, cfg.NumNodes),
		battery: make([]*Battery, cfg.NumNodes),
		epoch:   make([]uint32, cfg.NumNodes),
		trail:   make([]trail, cfg.NumNodes),
		topo:    1,
		nbrs:    make([][]nbr, cfg.NumNodes),
		stamp:   make([]uint64, cfg.NumNodes),
	}
	// One array holds every list; one that outgrows its share (three times
	// the paper's mean degree of 4.7) reallocates alone.
	const share = 16
	backing := make([]nbr, cfg.NumNodes*share)
	for i := range m.battery {
		m.battery[i] = NewBattery(cfg.Energy)
		m.nbrs[i] = backing[i*share : i*share : (i+1)*share]
	}
	m.wheel.init(cfg.Latency + cfg.Jitter)
	s.SetSource(m)
	return m, nil
}

// Join places node id at p and installs its receive callback. Joining a
// node that is already up panics.
func (m *Medium) Join(id int, p geom.Point, r Receiver) {
	if m.up[id] {
		// Unreachable from input: Build joins each node once, and manet rejoins one only when the last cause holding it down clears.
		panic(fmt.Sprintf("radio: Join of already-up node %d", id))
	}
	if r == nil {
		// Unreachable from input: every caller passes its router's HandleFrame.
		panic("radio: Join with nil receiver")
	}
	m.settle(-1)
	m.up[id] = true
	m.epoch[id]++
	m.topo++
	m.recv[id] = r
	m.grid.Insert(id, p)
}

// Leave removes node id from the air (death, churn). In-flight frames
// addressed to it are silently lost (counted in LostDown) — also when
// the node is back up by the time they arrive: each reception carries
// the join epoch its receiver had at transmit time, and a later Join
// starts a new one. Leaving a down node is a no-op.
func (m *Medium) Leave(id int) {
	if !m.up[id] {
		return
	}
	m.settle(-1)
	m.up[id] = false
	m.topo++
	m.grid.Remove(id)
}

// Up reports whether node id is currently on the air.
func (m *Medium) Up(id int) bool { return m.up[id] }

// SetPos moves node id (driven by the mobility tick).
func (m *Medium) SetPos(id int, p geom.Point) {
	if m.up[id] && p != m.grid.Pos(id) {
		m.topo++
		m.grid.Move(id, p)
	}
}

// Pos returns the last set position of node id.
func (m *Medium) Pos(id int) geom.Point { return m.grid.Pos(id) }

// InRange reports whether a and b are both up and within range.
func (m *Medium) InRange(a, b int) bool {
	return m.up[a] && m.up[b] && m.grid.Pos(a).Dist2(m.grid.Pos(b)) <= m.cfg.Range*m.cfg.Range
}

// nbr is a neighbour-list entry: a node in range and its join epoch, the
// two things a reception queued toward it carries (see Leave).
type nbr struct {
	to    int32
	epoch uint32
}

// neighbourList returns the up nodes within range of id, none if id is
// down. The list is refilled from the grid on its first use after topo
// moved, so it is grid.Near's output at this instant — same members, same
// order, hence the jitter draws and sequence numbers of a fresh query —
// and its join epochs are current: only Join changes one, and Join bumps
// topo. Valid until the next Join, Leave or SetPos.
func (m *Medium) neighbourList(id int) []nbr {
	if !m.up[id] {
		return nil
	}
	if m.stamp[id] != m.topo {
		m.near = m.grid.Near(m.near[:0], m.grid.Pos(id), m.cfg.Range, id)
		l := m.nbrs[id][:0]
		for _, to := range m.near {
			l = append(l, nbr{int32(to), m.epoch[to]})
		}
		m.nbrs[id], m.stamp[id] = l, m.topo
		m.fills++
	}
	return m.nbrs[id]
}

// Neighbors appends to dst the up nodes within range of id and returns
// the extended slice.
func (m *Medium) Neighbors(dst []int, id int) []int {
	for _, nb := range m.neighbourList(id) {
		dst = append(dst, int(nb.to))
	}
	return dst
}

// Degree reports the number of current radio neighbors of id.
func (m *Medium) Degree(id int) int { return len(m.neighbourList(id)) }

// Stats returns medium usage counters for node id.
func (m *Medium) Stats(id int) Stats { m.settle(-1); return m.stats[id] }

// Battery returns node id's battery for inspection.
func (m *Medium) Battery(id int) *Battery { return m.battery[id] }

// OnDeath installs a callback invoked when a node's battery empties.
func (m *Medium) OnDeath(fn func(id int)) { m.onDeath = fn }

// SetLinkFilter installs (or, with nil, removes) the per-delivery gate.
// The filter runs at transmit time, once per receiver.
//
// Reentrancy contract: the filter runs inside Send, so it may query the
// medium (Neighbors, Degree, InRange, Pos, Up) but must not mutate it —
// no Send, Join, Leave or SetPos — and must not draw from simulation RNG
// streams it does not own. The contract is load-bearing: a broadcast
// iterates the sender's cached neighbour list in place while the filter
// runs. A query may fill another node's list; a mutation would move the
// topology epoch and let a nested fill rewrite the list under the loop.
func (m *Medium) SetLinkFilter(f LinkFilter) { m.filter = f }

// InFlight reports how many deliveries are currently queued in the air.
func (m *Medium) InFlight() int { m.settle(-1); return m.wheel.n + len(m.held) - m.heldHead }

// InFlightTo fills dst with the per-destination counts of in-flight
// deliveries and returns it, growing dst to NumNodes if needed (pass nil
// for a fresh slice). Used by the invariant checker to close the
// per-node conservation law.
func (m *Medium) InFlightTo(dst []uint64) []uint64 {
	if len(dst) < m.cfg.NumNodes {
		dst = make([]uint64, m.cfg.NumNodes)
	}
	for i := range dst {
		dst[i] = 0
	}
	m.settle(-1)
	m.wheel.each(func(r *rec) { dst[r.to]++ })
	for _, r := range m.held[m.heldHead:] {
		dst[r.to]++
	}
	return dst
}

// NumNodes returns the node-ID space size.
func (m *Medium) NumNodes() int { return m.cfg.NumNodes }

// Send transmits a frame. For unicast the destination must be in range at
// transmit time or the frame is lost (returns 0). For Dst ==
// BroadcastAddr the frame is delivered to every in-range node. It returns
// the number of receivers the frame was queued for (pre-loss). Sending
// from a down node is a silent no-op returning 0: protocol timers can
// race with churn, and that race is real in a MANET. Send copies the
// payload's slices, so the caller may reuse their storage once it
// returns.
func (m *Medium) Send(f Frame) int {
	if f.Src < 0 || f.Src >= m.cfg.NumNodes || !m.up[f.Src] {
		return 0
	}
	if f.Size <= 0 {
		// Unreachable from input: frame sizes are header constants plus the p2p wire table's fixed sizes.
		panic("radio: Send with non-positive frame size")
	}
	now := m.sim.Now()
	if m.heldHead < len(m.held) {
		m.trim(now)
	}
	m.stats[f.Src].TxFrames++
	m.stats[f.Src].TxBytes += uint64(f.Size)
	m.spendTx(f.Src, f.Size)

	// Looked up after spendTx: a sender it killed reaches nobody.
	var list []nbr
	if f.Dst == BroadcastAddr {
		list = m.neighbourList(f.Src)
	} else if f.Dst >= 0 && f.Dst < m.cfg.NumNodes && m.InRange(f.Src, f.Dst) {
		list = []nbr{{int32(f.Dst), m.epoch[f.Dst]}}
	}

	// Each receiver that passes the link filter and the loss draw is queued
	// for arrival after latency+jitter; the first parks the frame in the
	// slab. A reception reserves its global sequence number here — exactly
	// where a per-frame event would be scheduled — so the wheel cannot
	// reorder it against anything else; or hold it (SetAbsorber).
	slot, queued := noSlot, int32(0)
	var in Inert
	for _, nb := range list {
		st := &m.stats[nb.to]
		if m.filter != nil && m.filter(f.Src, int(nb.to)) {
			st.Gated++
			continue
		}
		if m.cfg.LossProb > 0 && m.rng.Float64() < m.cfg.LossProb {
			st.Dropped++
			continue
		}
		delay := m.cfg.Latency
		if m.cfg.Jitter > 0 {
			delay += sim.Time(m.jrng.Int63n(int64(m.cfg.Jitter) + 1))
		}
		st.Queued++
		if slot == noSlot {
			slot = m.slab.park(&f)
			if m.absorb != nil && f.Dst == BroadcastAddr {
				in = m.absorb(&m.slab.at(slot).Frame)
			}
		}
		queued++
		r := rec{at: now + delay, seq: m.sim.ReserveSeq(), to: nb.to, slot: slot, epoch: nb.epoch}
		if in.Token != 0 && m.inert(&in, r) {
			if m.heldHead == len(m.held) || r.at < m.min.at || r.at == m.min.at && r.seq < m.min.seq {
				m.min = r
			}
			m.held = append(m.held, r)
		} else {
			m.wheel.push(r)
		}
	}
	if queued > 0 {
		m.slab.at(slot).refs = queued
	}
	return len(list)
}

// noSlot marks a transmission no receiver has been queued for yet.
const noSlot int32 = -1

// Next implements sim.Source: the key of the earliest pending reception.
func (m *Medium) Next() (sim.Time, uint64, bool) {
	return m.wheel.headAt, m.wheel.headSeq, m.wheel.n > 0
}

// Fire implements sim.Source: it completes the earliest pending
// reception. The receive callback gets a pointer into the slab, which
// stays valid while the callback Sends (see frameSlab); the slot is
// counted down after it returns — a Send inside it may settle held
// copies of the same frame — and recycled after the last reception.
func (m *Medium) Fire() {
	r := m.wheel.pop()
	to := int(r.to)
	fs := m.slab.at(r.slot)
	// The receiver may have left or died while the frame was in flight;
	// radio waves do not chase nodes, nor wait for them to come back.
	if !m.up[to] || m.epoch[to] != r.epoch {
		m.stats[to].LostDown++
	} else {
		m.stats[to].RxFrames++
		m.stats[to].RxBytes += uint64(fs.Size)
		m.spendRx(to, fs.Size)
		if m.up[to] { // spendRx may have killed it
			m.recv[to](&fs.Frame)
		}
	}
	m.unref(r.slot)
}

// unref drops one reception's reference to a slot.
func (m *Medium) unref(slot int32) {
	fs := m.slab.at(slot)
	if fs.refs--; fs.refs == 0 {
		m.slab.release(slot)
	}
}

// SetAbsorber installs (nil removes) the answer to Inert's question,
// asked about a broadcast's stored copy; it must not mutate the medium.
// It installs nothing where receptions cost energy: settling skips spendRx.
func (m *Medium) SetAbsorber(fn func(*Frame) Inert) {
	if m.cfg.Energy.RxPerFrame != 0 || m.cfg.Energy.RxPerByte != 0 {
		fn = nil
	}
	m.absorb = fn
}

// inert applies Inert's rules to reception r, keeping its receiver's trail.
func (m *Medium) inert(in *Inert, r rec) bool {
	to := int(r.to)
	if to == in.Skip {
		return false
	}
	if w := to >> 6; w < len(in.Set) && in.Set[w]&(1<<(to&63)) != 0 {
		return r.at < in.Until
	}
	t := &m.trail[to]
	if t.token == in.Token && t.epoch == r.epoch && !m.sim.Passed(t.at, t.seq) && r.at >= t.at {
		return r.at < in.Fresh // r, the newer seq, arrives after t
	}
	*t = trail{r, in.Token}
	return false
}

// apply settles held reception r as Fire would have on arrival, minus
// the callback: Join and Leave settle first, so its receiver is as then.
func (m *Medium) apply(r *rec) {
	st := &m.stats[r.to]
	if !m.up[r.to] || m.epoch[r.to] != r.epoch {
		st.LostDown++
	} else {
		st.RxFrames++
		st.RxBytes += uint64(m.slab.at(r.slot).Size)
		st.Absorbed++
	}
	m.unref(r.slot)
}

// trim settles the list's head while it arrived before now, and compacts.
func (m *Medium) trim(now sim.Time) {
	h := m.heldHead
	for h < len(m.held) && m.held[h].at < now {
		m.apply(&m.held[h])
		h++
	}
	if 2*h >= len(m.held) {
		m.held, h = m.held[:copy(m.held, m.held[h:])], 0
	}
	m.heldHead = h
}

// settle applies the held receptions the kernel has passed and returns
// node unheld's others to the wheel. settle(-1) runs before every reader,
// Join and Leave, and returns at once if it already ran at this position.
func (m *Medium) settle(unheld int) {
	if unheld < 0 && (m.heldHead == len(m.held) || !m.sim.Passed(m.min.at, m.min.seq)) {
		return
	}
	kept := m.held[:0]
	for _, r := range m.held[m.heldHead:] {
		switch {
		case m.sim.Passed(r.at, r.seq):
			m.apply(&r)
		case int(r.to) == unheld:
			m.wheel.push(r)
		default:
			if len(kept) == 0 || r.at < m.min.at || r.at == m.min.at && r.seq < m.min.seq {
				m.min = r
			}
			kept = append(kept, r)
		}
	}
	m.held, m.heldHead = kept, 0
}

// Unabsorb returns node id's held receptions to the wheel, under their
// own keys, and forgets its trail.
func (m *Medium) Unabsorb(id int) {
	m.settle(id)
	m.trail[id] = trail{}
}

func (m *Medium) spendTx(id, size int) {
	if m.battery[id].SpendTx(size) {
		m.kill(id)
	}
}

func (m *Medium) spendRx(id, size int) {
	if m.battery[id].SpendRx(size) {
		m.kill(id)
	}
}

func (m *Medium) kill(id int) {
	if !m.up[id] {
		return
	}
	m.Leave(id)
	if m.onDeath != nil {
		m.onDeath(id)
	}
}
