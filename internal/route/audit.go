package route

import (
	"fmt"
	"math/bits"

	"manetp2p/internal/sim"
)

// Audit validates every duplicate index on the plane and reports each
// violated rule through report(rule, detail); a healthy plane reports
// nothing. It is the routing half of the runtime invariant checker, next
// to sim.Sim.Audit and radio.Medium.Audit, and reads only. The rules:
//
//   - log-order: the mark log is in time order, and when the last call
//     returned no live mark in it had reached the timeout — expiry is
//     exact, never deferred.
//   - bit-count: a record's live count is the population of its node
//     set, a node's live count is the number of records it is set in,
//     and the live marks in the log are exactly the set bits — "bit set"
//     and "marked and not yet expired or evicted" are one fact.
//   - table-reach: every live record is found by probing for its key,
//     every table slot names a live record, and every other record is
//     on the free list and all-zero — no ghost hits from a recycled
//     record, no key lost behind a gap in a probe run.
//   - node-bound: no node holds more live marks than the hard cap.
//
// Audit allocates scratch; it is meant for periodic self-checks.
func (p *Plane) Audit(report func(rule, detail string)) {
	for i, x := range p.dups {
		x.audit(func(rule, detail string) {
			report(rule, fmt.Sprintf("dup index %d (cache %d, timeout %v): %s", i, x.ord, x.cfg.Timeout, detail))
		})
	}
}

func (x *dupIndex) audit(report func(rule, detail string)) {
	// The log: order, exact expiry, and every live mark backed by a bit.
	marks := 0
	var last sim.Time
	for i := 0; i < x.n; i++ {
		m := *x.at(i)
		if i > 0 && m.t < last {
			report("log-order", fmt.Sprintf("mark %d at %v logged behind one at %v", i, m.t, last))
		}
		last = m.t
		if m.node < 0 {
			continue
		}
		marks++
		if x.swept-m.t >= x.cfg.Timeout {
			report("log-order", fmt.Sprintf("mark %d of node %d at %v outlived the timeout at %v", i, m.node, m.t, x.swept))
		}
		if m.rec >= x.made || int(m.node) >= len(x.live) || !x.has(m.rec, int(m.node)) {
			report("bit-count", fmt.Sprintf("live mark %d (node %d, record %d) has no bit set", i, m.node, m.rec))
		}
	}

	// The records: counts against populations, row- and column-wise.
	column := make([]int32, len(x.live))
	total, liveRecs := 0, 0
	for r := int32(0); r < x.made; r++ {
		rec := x.rec(r)
		pop := 0
		for w, word := range x.set(r) {
			pop += bits.OnesCount64(word)
			for ; word != 0; word &= word - 1 {
				if node := w<<6 + bits.TrailingZeros64(word); node < len(column) {
					column[node]++
				} else {
					report("bit-count", fmt.Sprintf("record %d has a bit for node %d of %d", r, node, len(column)))
				}
			}
		}
		if int(rec.live) != pop {
			report("bit-count", fmt.Sprintf("record %d (%+v) counts %d nodes, its set holds %d", r, rec.key, rec.live, pop))
		}
		total += pop
		if rec.live > 0 {
			liveRecs++
			if _, found := x.find(rec.key); found != r {
				report("table-reach", fmt.Sprintf("live record %d (%+v) not reached by its key (probe found %d)", r, rec.key, found))
			}
		}
	}
	if marks != total {
		report("bit-count", fmt.Sprintf("the log holds %d live marks, the records %d set bits", marks, total))
	}
	for node, n := range x.live {
		if n != column[node] {
			report("bit-count", fmt.Sprintf("node %d counts %d live marks, is set in %d records", node, n, column[node]))
		}
		if int(n) > x.cfg.HardCap {
			report("node-bound", fmt.Sprintf("node %d holds %d live marks, hard cap %d", node, n, x.cfg.HardCap))
		}
	}

	// The table and the free list.
	slots := 0
	for i, r := range x.table {
		if r == 0 {
			continue
		}
		slots++
		if r > x.made || x.rec(r-1).live <= 0 {
			report("table-reach", fmt.Sprintf("slot %d names record %d, which is not live", i, r-1))
		}
	}
	if slots != liveRecs || x.nrec != liveRecs {
		report("table-reach", fmt.Sprintf("%d slots occupied, %d records counted, %d records live", slots, x.nrec, liveRecs))
	}
	if len(x.free) != int(x.made)-liveRecs {
		report("table-reach", fmt.Sprintf("%d of %d records live, but %d on the free list", liveRecs, x.made, len(x.free)))
	}
	onFree := make([]bool, x.made)
	for _, r := range x.free {
		if r >= x.made || onFree[r] || *x.rec(r) != (dupRecord{}) {
			report("table-reach", fmt.Sprintf("free record %d is not zeroed, or listed twice", r))
			continue
		}
		onFree[r] = true
	}
}
