package radio

import (
	"fmt"
	"math/bits"
	"reflect"
	"slices"

	"manetp2p/internal/netif"
	"manetp2p/internal/sim"
)

// This file holds the medium's two in-flight structures: the timing
// wheel of pending receptions and the slab that stores each transmitted
// frame once for all of its receivers.

// maxBuckets bounds the wheel: 64 bitmap words of 64 buckets, so the
// earliest non-empty bucket is two trailing-zero counts away.
const maxBuckets = 64 * 64

// rec is one in-flight reception: the frame in slab slot slot arrives at
// node to at instant at, ordered among all simulator work by seq.
type rec struct {
	at    sim.Time
	seq   uint64
	to    int32
	slot  int32
	epoch uint32 // to's join epoch at transmit time; see Medium.Leave
	next  int32  // bucket list link, or free-list link; -1 ends either
}

// bucket is a singly linked list of recs in (at, seq) order.
type bucket struct{ head, tail int32 }

// wheel is the pending-reception queue: a ring of buckets indexed by
// arrival time, each bucket `1<<shift` µs wide.
//
// Every delivery delay lies in [Latency, Latency+Jitter], so at any
// moment all pending arrivals lie in the window [now, now+span] with
// span = Latency+Jitter. The ring has at least span>>shift + 2 buckets,
// more than the window can touch, so two pending arrivals share a bucket
// only if they share a bucket-wide time range: buckets partition the
// window, and the earliest non-empty bucket, searched circularly from
// the current one, holds the earliest arrival.
//
// Inside a bucket the list is kept in (at, seq) order. Seqs are issued
// monotonically, so a new rec orders after every queued rec with the
// same at: in a 1 µs bucket (the default 2 ms + 1 ms geometry) all recs
// share one at and plain append is already the ordered insert — each
// bucket is a FIFO. Only a wider bucket can see a rec that precedes the
// tail, and then the insert walks the list; it is the same code path.
type wheel struct {
	shift   uint
	mask    int
	span    sim.Time
	buckets []bucket
	words   []uint64 // bit b&63 of words[b>>6]: bucket b is non-empty
	summary uint64   // bit w: words[w] != 0

	recs []rec // slab; indices are stable, pointers are not
	free int32 // free-list head into recs

	n       int   // queued recs
	head    int32 // the earliest rec; meaningful while n > 0
	headAt  sim.Time
	headSeq uint64
}

// init sizes the ring for arrival delays of at most span.
func (w *wheel) init(span sim.Time) {
	w.span = span
	for (int64(span)>>w.shift)+2 > maxBuckets {
		w.shift++
	}
	nb := 1
	for nb < int(int64(span)>>w.shift)+2 {
		nb <<= 1
	}
	w.mask = nb - 1
	w.buckets = make([]bucket, nb)
	for i := range w.buckets {
		w.buckets[i] = bucket{-1, -1}
	}
	w.words = make([]uint64, (nb+63)/64)
	w.free = -1
}

func (w *wheel) bucketOf(at sim.Time) int { return int(int64(at)>>w.shift) & w.mask }

// before reports whether rec i orders before rec j.
func (w *wheel) before(i, j int32) bool {
	a, b := &w.recs[i], &w.recs[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push queues r (its next field is ignored).
func (w *wheel) push(r rec) {
	i := w.free
	if i >= 0 {
		w.free = w.recs[i].next
	} else {
		w.recs = append(w.recs, rec{})
		i = int32(len(w.recs) - 1)
	}
	r.next = -1
	w.recs[i] = r

	b := w.bucketOf(r.at)
	bk := &w.buckets[b]
	switch {
	case bk.head < 0:
		bk.head, bk.tail = i, i
		w.words[b>>6] |= 1 << (b & 63)
		w.summary |= 1 << (b >> 6)
	case !w.before(i, bk.tail):
		w.recs[bk.tail].next = i
		bk.tail = i
	default:
		prev, cur := int32(-1), bk.head
		for !w.before(i, cur) { // terminates: i orders before the tail
			prev, cur = cur, w.recs[cur].next
		}
		w.recs[i].next = cur
		if prev < 0 {
			bk.head = i
		} else {
			w.recs[prev].next = i
		}
	}

	w.n++
	if w.n == 1 || r.at < w.headAt || (r.at == w.headAt && r.seq < w.headSeq) {
		w.head, w.headAt, w.headSeq = i, r.at, r.seq
	}
}

// pop removes and returns the earliest rec. The wheel must not be empty.
func (w *wheel) pop() rec {
	i := w.head
	r := w.recs[i]
	w.recs[i] = rec{next: w.free}
	w.free = i
	w.n--

	// The earliest rec is the head of the earliest bucket.
	b := w.bucketOf(r.at)
	bk := &w.buckets[b]
	bk.head = r.next
	next := r.next
	if next < 0 {
		bk.tail = -1
		w.words[b>>6] &^= 1 << (b & 63)
		if w.words[b>>6] == 0 {
			w.summary &^= 1 << (b >> 6)
		}
		if w.n == 0 {
			return r
		}
		next = w.buckets[w.firstFrom(b)].head
	}
	w.head, w.headAt, w.headSeq = next, w.recs[next].at, w.recs[next].seq
	return r
}

// each calls fn for every queued rec, bucket by bucket.
func (w *wheel) each(fn func(*rec)) {
	for _, bk := range w.buckets {
		for i := bk.head; i >= 0; i = w.recs[i].next {
			fn(&w.recs[i])
		}
	}
}

// firstFrom returns the first non-empty bucket at or circularly after b.
// The wheel must not be empty.
func (w *wheel) firstFrom(b int) int {
	wd := b >> 6
	if x := w.words[wd] >> (b & 63); x != 0 {
		return b + bits.TrailingZeros64(x)
	}
	if s := w.summary >> (wd + 1); s != 0 {
		wd += 1 + bits.TrailingZeros64(s)
	} else {
		wd = bits.TrailingZeros64(w.summary) // wrapped around
	}
	return wd<<6 + bits.TrailingZeros64(w.words[wd])
}

// frameSlot stores one transmitted frame for all of its receivers.
type frameSlot struct {
	Frame
	refs int32 // receptions of this frame still queued in the wheel
}

// slotBufs holds the storage a slot's frame slices point into. The
// buffers keep their capacity from one transmission to the next; they
// sit beside the slots, so a frame that carries no slice never touches
// them.
type slotBufs struct {
	path []int
	unr  []netif.Unreachable
	ent  []netif.AdvEntry
}

// Frame slots are allocated slabChunk at a time. Chunks are never moved
// or freed, which is what keeps a *Frame handed to a receive callback
// valid while that callback Sends and grows the slab.
const (
	slabShift = 4
	slabChunk = 1 << slabShift
)

// frameSlab is the pointer-stable store of in-flight frames.
type frameSlab struct {
	chunks [][]frameSlot
	bufs   []slotBufs // by slot
	used   int32      // slots ever handed out; the next fresh index
	free   []int32    // recycled slots
}

func (fs *frameSlab) at(idx int32) *frameSlot {
	return &fs.chunks[idx>>slabShift][idx&(slabChunk-1)]
}

// park stores *f and returns its slot, with no receptions counted yet.
// The payload's slices are copied into the slot's buffers, so the sender
// may reuse its own as soon as Send returns.
func (fs *frameSlab) park(f *Frame) int32 {
	var idx int32
	if n := len(fs.free); n > 0 {
		idx = fs.free[n-1]
		fs.free = fs.free[:n-1]
	} else {
		idx = fs.used
		if int(idx) == len(fs.chunks)*slabChunk {
			fs.chunks = append(fs.chunks, make([]frameSlot, slabChunk))
		}
		fs.bufs = append(fs.bufs, slotBufs{})
		fs.used++
	}
	s := fs.at(idx)
	s.Frame = *f
	if p := &s.Payload; carries(p) {
		b := &fs.bufs[idx]
		p.Path = adopt(&b.path, p.Path)
		p.Unreachable = adopt(&b.unr, p.Unreachable)
		p.Entries = adopt(&b.ent, p.Entries)
	}
	return idx
}

// carries reports whether p has a non-empty slice.
func carries(p *netif.Packet) bool {
	return len(p.Path)+len(p.Unreachable)+len(p.Entries) > 0
}

// adopt copies a non-empty src into *buf and returns the copy, clipped
// so that an append to it cannot write into the buffer.
func adopt[T any](buf *[]T, src []T) []T {
	if len(src) == 0 {
		return src
	}
	*buf = append((*buf)[:0], src...)
	return slices.Clip(*buf)
}

// scrub overwrites *buf with poison and truncates it.
func scrub[T any](buf *[]T, poison T) {
	for i := range *buf {
		(*buf)[i] = poison
	}
	*buf = (*buf)[:0]
}

// release recycles a slot: the frame is zeroed and the buffers it used
// are overwritten with -1 and truncated, keeping their capacity. A
// receiver that kept a slice past its callback reads node -1 from then
// on, which fails loudly wherever it is used.
func (fs *frameSlab) release(idx int32) {
	s := fs.at(idx)
	if carries(&s.Payload) {
		b := &fs.bufs[idx]
		scrub(&b.path, -1)
		scrub(&b.unr, netif.Unreachable{Dst: -1})
		scrub(&b.ent, netif.AdvEntry{Dst: -1, Metric: -1})
	}
	*s = frameSlot{}
	fs.free = append(fs.free, idx)
}

// Audit validates the medium's in-flight structures and reports each
// violated rule through report(rule, detail); a healthy medium reports
// nothing. It is the radio half of the runtime invariant checker, next
// to sim.Sim.Audit. The rules:
//
//   - wheel-order: every bucket list is in (at, seq) order, holds only
//     recs that hash to it, agrees with the occupancy bitmap, and the
//     cached head is the earliest rec — the wheel fires in key order.
//   - wheel-window: every rec arrives inside [now, now+Latency+Jitter],
//     the window the ring is sized for; outside it two laps would share
//     a bucket.
//   - slot-refs: each frame slot's reception count equals the recs that
//     name it, in the wheel or held off it (Inert), so the counts sum to
//     InFlight() and a frame is released exactly after its last
//     reception.
//   - free-slot: recycled slots are zeroed, their buffers empty, and
//     named by no rec.
//   - nbr-table: a neighbour list stamped with the current topology
//     epoch belongs to an up node, equals a fresh grid query element for
//     element and carries current join epochs. Read-only: a checked run
//     makes exactly the fills an unchecked one makes.
//
// Audit keeps its scratch on the medium, grown by a pass over more slots
// or a longer neighbour list than any before and cleared by each, so a
// pass over structures no larger than an earlier one allocates nothing.
// It is meant for periodic self-checks.
func (m *Medium) Audit(report func(rule, detail string)) {
	if m.audit == nil {
		m.audit = new(auditScratch)
	}
	a, used := m.audit, int(m.slab.used)
	w := &m.wheel
	now := m.sim.Now()
	a.refs = slices.Grow(a.refs[:0], used)[:used]
	clear(a.refs)
	refs := a.refs
	count := 0
	var earliest *rec
	for b := range w.buckets {
		bk := w.buckets[b]
		if set := w.words[b>>6]&(1<<(b&63)) != 0; set != (bk.head >= 0) {
			report("wheel-order", fmt.Sprintf("bucket %d: occupancy bit %v, list empty %v", b, set, bk.head < 0))
		}
		last := int32(-1)
		for i := bk.head; i >= 0; i = w.recs[i].next {
			r := &w.recs[i]
			if count++; count > len(w.recs) {
				report("wheel-order", fmt.Sprintf("bucket %d: list longer than the rec slab (cycle)", b))
				return
			}
			if w.bucketOf(r.at) != b {
				report("wheel-order", fmt.Sprintf("rec at=%v seq=%d sits in bucket %d, hashes to %d", r.at, r.seq, b, w.bucketOf(r.at)))
			}
			if last >= 0 && !w.before(last, i) {
				report("wheel-order", fmt.Sprintf("bucket %d: rec at=%v seq=%d queued behind at=%v seq=%d",
					b, r.at, r.seq, w.recs[last].at, w.recs[last].seq))
			}
			if r.at < now || r.at > now+w.span {
				report("wheel-window", fmt.Sprintf("rec at=%v seq=%d outside [%v, %v]", r.at, r.seq, now, now+w.span))
			}
			if r.slot < 0 || r.slot >= m.slab.used {
				report("slot-refs", fmt.Sprintf("rec at=%v seq=%d names slot %d of %d", r.at, r.seq, r.slot, m.slab.used))
			} else {
				refs[r.slot]++
			}
			if earliest == nil || r.at < earliest.at || (r.at == earliest.at && r.seq < earliest.seq) {
				earliest = r
			}
			last = i
		}
		if last != bk.tail {
			report("wheel-order", fmt.Sprintf("bucket %d: tail %d, list ends at %d", b, bk.tail, last))
		}
	}
	if count != w.n {
		report("wheel-order", fmt.Sprintf("lists hold %d recs, counter says %d", count, w.n))
	}
	if earliest != nil && (w.headAt != earliest.at || w.headSeq != earliest.seq) {
		report("wheel-order", fmt.Sprintf("cached head (at=%v seq=%d) is not the earliest rec (at=%v seq=%d)",
			w.headAt, w.headSeq, earliest.at, earliest.seq))
	}

	for _, r := range m.held[m.heldHead:] {
		if r.slot >= 0 && r.slot < m.slab.used { // else a real slot's count is off
			refs[r.slot]++
		}
	}

	a.free = slices.Grow(a.free[:0], used)[:used]
	clear(a.free)
	free := a.free
	for _, idx := range m.slab.free {
		free[idx] = true
	}
	for idx := int32(0); idx < m.slab.used; idx++ {
		s := m.slab.at(idx)
		if s.refs != refs[idx] {
			report("slot-refs", fmt.Sprintf("slot %d counts %d receptions, the wheel and the held list name %d", idx, s.refs, refs[idx]))
		}
		b := &m.slab.bufs[idx]
		if free[idx] && (refs[idx] != 0 || !reflect.ValueOf(s.Frame).IsZero() || len(b.path)+len(b.unr)+len(b.ent) != 0) {
			report("free-slot", fmt.Sprintf("recycled slot %d is not zeroed or still named by %d recs", idx, refs[idx]))
		}
	}

	near := a.near[:0] // its own buffer: the audit never touches fill's
	for id, l := range m.nbrs {
		if m.stamp[id] != m.topo {
			continue
		}
		near = m.grid.Near(near[:0], m.grid.Pos(id), m.cfg.Range, id)
		ok := m.up[id] && len(l) == len(near)
		for i := 0; ok && i < len(l); i++ {
			ok = int(l[i].to) == near[i] && l[i].epoch == m.epoch[near[i]]
		}
		if !ok {
			report("nbr-table", fmt.Sprintf("node %d (up %v): list %v under a current stamp, a fresh query gives %v", id, m.up[id], l, near))
		}
	}
	a.near = near
}

// auditScratch is Audit's working state: receptions counted per slot,
// the recycled slots, and the fresh grid query a neighbour list is held to.
type auditScratch struct {
	refs []int32
	free []bool
	near []int
}
