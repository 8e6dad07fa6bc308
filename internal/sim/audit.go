package sim

import "fmt"

// This file implements the kernel half of the runtime invariant checker
// (internal/invariant): a structural self-validation of the pooled event
// engine introduced by the zero-allocation rewrite. It runs only when a
// caller asks for it — nothing here touches the schedule/fire hot path —
// and exists because the engine's correctness now rests on bookkeeping
// (heap order, generation counters, an intrusive free list) that golden
// fixtures exercise but never inspect directly.

// Audit validates the simulator's internal structures and reports each
// violated rule through report(rule, detail). A healthy Sim reports
// nothing. The rules:
//
//   - heap-order: the event queue satisfies the (at, seq) min-heap
//     property — the engine always fires the earliest pending event.
//   - past-event: no queued event is stamped before Now; the past is
//     immutable (peekLive discards cancelled entries before the clock
//     can move past them, so even lazily-cancelled events obey this).
//   - seq-bound / seq-dup: every queued sequence number was actually
//     issued, and no two queued events share one — the FIFO tie-break
//     among same-instant events is total.
//   - callback: every queued slot carries a callback, so firing it
//     cannot panic.
//   - free-list: recycled slots are disjoint from the queue, carry no
//     stale callback or cancellation state, and the intrusive list is
//     acyclic — a slot can never be both pending and reusable, which is
//     the structural form of "no fired-handle reuse".
//
// Audit allocates scratch maps; it is meant for periodic self-checks,
// not for per-event use.
func (s *Sim) Audit(report func(rule, detail string)) {
	n := len(s.queue.items)
	queued := make(map[*Event]int, n)
	seqs := make(map[uint64]int, n)
	for i, e := range s.queue.items {
		queued[e] = i
		if left := 2*i + 1; left < n && s.queue.less(left, i) {
			report("heap-order", fmt.Sprintf("item %d (at=%v seq=%d) orders after its child %d (at=%v seq=%d)",
				i, e.at, e.seq, left, s.queue.items[left].at, s.queue.items[left].seq))
		}
		if right := 2*i + 2; right < n && s.queue.less(right, i) {
			report("heap-order", fmt.Sprintf("item %d (at=%v seq=%d) orders after its child %d (at=%v seq=%d)",
				i, e.at, e.seq, right, s.queue.items[right].at, s.queue.items[right].seq))
		}
		if e.at < s.now {
			report("past-event", fmt.Sprintf("queued event at %v precedes now %v (seq=%d cancelled=%v)",
				e.at, s.now, e.seq, e.cancelled))
		}
		if e.seq > s.seq {
			report("seq-bound", fmt.Sprintf("queued seq %d exceeds issued high-water %d", e.seq, s.seq))
		}
		if prev, dup := seqs[e.seq]; dup {
			report("seq-dup", fmt.Sprintf("seq %d held by queue items %d and %d", e.seq, prev, i))
		}
		seqs[e.seq] = i
		if e.fn == nil {
			report("callback", fmt.Sprintf("queued event at %v seq=%d carries no callback", e.at, e.seq))
		}
	}

	// Walk the free list with a visited set doubling as the cycle guard.
	seen := make(map[*Event]bool)
	for e := s.free; e != nil; e = e.nextFree {
		if seen[e] {
			report("free-list", "intrusive free list contains a cycle")
			break
		}
		seen[e] = true
		if i, inQueue := queued[e]; inQueue {
			report("free-list", fmt.Sprintf("slot is both free and queued as item %d (at=%v seq=%d)",
				i, e.at, e.seq))
		}
		if e.fn != nil || e.arg.I0 != 0 || e.arg.I1 != 0 || e.arg.X != nil {
			report("free-list", "recycled slot retains a callback or argument")
		}
		if e.cancelled || e.fired {
			report("free-list", "recycled slot retains cancellation/fired state")
		}
	}
}
