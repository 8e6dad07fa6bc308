package route

import (
	"fmt"
	"math/bits"
	"slices"
)

// Audit validates every duplicate index on the plane and reports each
// violated rule through report(rule, detail); a healthy plane reports
// nothing. It is the routing half of the runtime invariant checker, next
// to sim.Sim.Audit and radio.Medium.Audit, and reads only. The rules:
//
//   - log-order: the mark log's times, each relative to the entry
//     before it, decode from its head's instant to its tail's, which is
//     no later than the last call; and when that call returned no live
//     mark in the log had reached the timeout — expiry is exact, never
//     deferred.
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
// Each index keeps its scratch, made by its first audit and cleared by
// each later one, so a pass over indexes no larger than an earlier one
// allocates nothing. Audit is meant for periodic self-checks.
func (p *Plane) Audit(report func(rule, detail string)) {
	for i, x := range p.dups {
		x.audit(func(rule, detail string) {
			report(rule, fmt.Sprintf("dup index %d (cache %d, timeout %v): %s", i, x.ord, x.cfg.Timeout, detail))
		})
	}
}

func (x *dupIndex) audit(report func(rule, detail string)) {
	// The log: times that decode from headT to tailT, exact expiry, and
	// every live mark backed by a bit.
	marks := 0
	t := x.headT
	for i := 0; i < x.n; i++ {
		m := *x.at(i)
		if i > 0 {
			t += m.gap()
		}
		if m.rec < 0 {
			continue
		}
		marks++
		if x.swept-t >= x.cfg.Timeout {
			report("log-order", fmt.Sprintf("mark %d of node %d at %v outlived the timeout at %v", i, m.node, t, x.swept))
		}
		if m.rec >= x.made || int(m.node) >= len(x.live) || !x.has(m.rec, int(m.node)) {
			report("bit-count", fmt.Sprintf("live mark %d (node %d, record %d) has no bit set", i, m.node, m.rec))
		}
	}
	if x.n > 0 && (t != x.tailT || t > x.swept) {
		report("log-order", fmt.Sprintf("the log decodes from %v to %v, its tail is at %v, the last retire at %v", x.headT, t, x.tailT, x.swept))
	}

	if x.scratch == nil {
		x.scratch = new(dupAudit)
	}
	a := x.scratch

	// The records: counts against populations, row- and column-wise.
	a.column = slices.Grow(a.column[:0], len(x.live))[:len(x.live)]
	clear(a.column)
	column := a.column
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
	a.onFree = slices.Grow(a.onFree[:0], int(x.made))[:int(x.made)]
	clear(a.onFree)
	onFree := a.onFree
	for _, r := range x.free {
		if r >= x.made || onFree[r] || *x.rec(r) != (dupRecord{}) {
			report("table-reach", fmt.Sprintf("free record %d is not zeroed, or listed twice", r))
			continue
		}
		onFree[r] = true
	}
}

// dupAudit is an index's audit scratch: the records each node is set in,
// and the records on the free list.
type dupAudit struct {
	column []int32
	onFree []bool
}
