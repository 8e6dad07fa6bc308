package p2p

import "manetp2p/internal/marks"

// QueryLedger records which servents of one network have handled each
// query: rule 1's "forward or respond at most once" and the random
// walker's "answer at most once" are one bit test in it. It is a
// marks.Index that never removes, so a servent never handles a query
// twice, whatever the horizon; a query costs one record of 8 + 8⌈n/64⌉
// bytes however many servents it reaches. Every servent of a network
// shares one ledger; replications never share one.
type QueryLedger struct {
	marks.Index[struct{}]
}

// NewQueryLedger returns an empty ledger for a network of nodes nodes.
func NewQueryLedger(nodes int) *QueryLedger {
	return &QueryLedger{marks.Make[struct{}](nodes)}
}

// mark records that node has handled the query origin issued as qid,
// and reports whether it already had.
func (l *QueryLedger) mark(node, origin int, qid uint32) bool {
	k := marks.Pack(origin, qid)
	slot, r := l.Find(k)
	if r < 0 {
		r = l.Insert(k, slot)
	}
	w, b := l.Bit(r, node)
	had := *w&b != 0
	*w |= b
	return had
}
