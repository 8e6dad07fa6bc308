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
//   - table-reach: the index's rule (marks.Index.Audit) — every held
//     record is found by probing for its key, every table slot names a
//     held record, every free record is all-zero — and every held
//     record has a live mark.
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
		if m.rec >= x.recs.Made() || int(m.node) >= len(x.live) || !x.recs.Has(m.rec, int(m.node)) {
			report("bit-count", fmt.Sprintf("live mark %d (node %d, record %d) has no bit set", i, m.node, m.rec))
		}
	}
	if x.n > 0 && (t != x.tailT || t > x.swept) {
		report("log-order", fmt.Sprintf("the log decodes from %v to %v, its tail is at %v, the last retire at %v", x.headT, t, x.tailT, x.swept))
	}

	// The records: counts against populations, row- and column-wise.
	x.column = slices.Grow(x.column[:0], len(x.live))[:len(x.live)]
	clear(x.column)
	column := x.column
	total, liveRecs := 0, 0
	for r := range x.recs.Made() {
		v := x.recs.Val(r)
		pop := 0
		for w, word := range x.recs.Set(r) {
			pop += bits.OnesCount64(word)
			for ; word != 0; word &= word - 1 {
				if node := w<<6 + bits.TrailingZeros64(word); node < len(column) {
					column[node]++
				} else {
					report("bit-count", fmt.Sprintf("record %d has a bit for node %d of %d", r, node, len(column)))
				}
			}
		}
		if int(v.live) != pop {
			report("bit-count", fmt.Sprintf("record %d (key %#x) counts %d nodes, its set holds %d", r, x.recs.Key(r), v.live, pop))
		}
		total += pop
		if v.live > 0 {
			liveRecs++
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

	// The table: the index's own rule, and no record held without a
	// live mark.
	x.recs.Audit(report)
	if n := x.recs.Len(); n != liveRecs {
		report("table-reach", fmt.Sprintf("%d records held, %d with a live mark", n, liveRecs))
	}
}
