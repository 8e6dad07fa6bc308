package p2p

import (
	"manetp2p/internal/sim"
	"manetp2p/internal/telemetry"
	"manetp2p/internal/trace"
)

// This file implements the Gnutella-based query system of §7.2. A
// servent sends a query to all its overlay neighbors, waits 30 s for
// answers, then waits a random 15–45 s before the next query. Forwarding
// rules: each node forwards or responds to a query at most once, never
// back to the neighbor it came from, and never to the original requirer.
// A node holding the file answers the requirer directly (ad-hoc unicast)
// and still forwards the query.

// queryGap draws the inter-query pause: the scripted workload engine's
// when one is attached, else the paper's uniform 15–45 s.
func (sv *Servent) queryGap() sim.Time {
	if d := sv.opt.Demand; d != nil {
		return d.NextGap(sv.id)
	}
	return sim.UniformDuration(sv.opt.RNG, sv.par.QueryGapMin, sv.par.QueryGapMax)
}

// pickFile chooses a file to request: the workload engine's popularity
// model when one is attached, else uniformly among files this node does
// not hold (a peer does not search for content it already has). Returns
// -1 if there is nothing to request.
func (sv *Servent) pickFile() int {
	n := len(sv.opt.Files)
	if n == 0 {
		return -1
	}
	if d := sv.opt.Demand; d != nil {
		return d.PickFile(sv.id, sv.opt.Files)
	}
	// Count misses first so the draw is exact, not rejection-sampled.
	missing := 0
	for _, held := range sv.opt.Files {
		if !held {
			missing++
		}
	}
	if missing == 0 {
		return -1
	}
	k := sv.opt.RNG.Intn(missing)
	for f, held := range sv.opt.Files {
		if held {
			continue
		}
		if k == 0 {
			return f
		}
		k--
	}
	return -1
}

// runQuery issues one file search.
func (sv *Servent) runQuery() {
	sv.queryEv = sim.Handle{}
	if !sv.joined {
		return
	}
	if d := sv.opt.Demand; d != nil {
		d.Offered(sv.id)
	}
	file := sv.pickFile()
	if file < 0 || len(sv.conns) == 0 {
		// Nothing to ask or no one to ask: try again later.
		sv.queryEv = sv.s.Schedule(sv.queryGap(), sv.runQueryFn)
		return
	}
	sv.nextQID++
	sv.opt.Tracer.Emit(trace.KindQuery, sv.id, -1, "query qid=%d file=%d", trace.Int(sv.nextQID), trace.Int(file))
	sv.curReq = &request{qid: sv.nextQID, file: file}
	sv.seen[queryKey{sv.id, sv.nextQID}] = struct{}{}
	switch sv.par.QueryMode {
	case QueryRandomWalk:
		// Launch k walkers on random neighbors (distinct when possible).
		q := Msg{Kind: msgQuery, Origin: sv.id, Seq: sv.nextQID, File: file, TTL: sv.par.WalkTTL, Walk: true}
		peers := sv.sortedPeers()
		sv.opt.RNG.Shuffle(len(peers), func(i, j int) { peers[i], peers[j] = peers[j], peers[i] })
		for w := 0; w < sv.par.Walkers; w++ {
			sv.send(peers[w%len(peers)], q)
		}
	default:
		q := Msg{Kind: msgQuery, Origin: sv.id, Seq: sv.nextQID, File: file, TTL: sv.par.QueryTTL, Hops: 0}
		for _, peer := range sv.sortedPeers() { // sorted: keeps runs reproducible
			sv.send(peer, q)
		}
	}
	if d := sv.opt.Demand; d != nil {
		d.Issued(sv.id)
	}
	sv.queryEv = sv.s.Schedule(sv.par.QueryCollect, sv.finishQueryFn)
}

// finishQuery closes the 30 s collection window, records the outcome and
// schedules the next query.
func (sv *Servent) finishQuery() {
	sv.queryEv = sim.Handle{}
	if r := sv.curReq; r != nil {
		sv.opt.Tracer.Emit(trace.KindQuery, sv.id, -1,
			"done qid=%d file=%d answers=%d minP2P=%d", trace.Int(r.qid), trace.Int(r.file), trace.Int(r.answers), trace.Int(r.minP2P))
	}
	if r := sv.curReq; r != nil && sv.opt.Collector != nil {
		sv.opt.Collector.Record(telemetry.Request{
			Node:     sv.id,
			File:     r.file,
			Answers:  r.answers,
			MinP2P:   r.minP2P,
			MinAdhoc: r.minAdhoc,
			Found:    r.answers > 0,
		})
	}
	r := sv.curReq
	sv.curReq = nil
	if r != nil {
		if d := sv.opt.Demand; d != nil {
			d.Done(sv.id, r.answers > 0)
		}
	}
	if !sv.joined {
		return
	}
	if r != nil && r.answers > 0 {
		sv.maybeStartDownload(r.file, r.holder)
	}
	sv.queryEv = sv.s.Schedule(sv.queryGap(), sv.runQueryFn)
}

// onQuery applies the paper's three forwarding rules and answers if this
// node holds the file. Random-walk queries relax rule 1: a walker may
// revisit a node (it keeps walking), but the node answers at most once.
func (sv *Servent) onQuery(prev int, q Msg) {
	if q.Origin == sv.id {
		return
	}
	if q.Walk {
		sv.onWalkQuery(prev, q)
		return
	}
	k := queryKey{q.Origin, q.Seq}
	if _, dup := sv.seen[k]; dup {
		return // rule 1: forward or respond at most once
	}
	sv.seen[k] = struct{}{}
	myDist := q.Hops + 1
	if sv.HasFile(q.File) {
		// "it sends a response directly to the requirer."
		sv.send(q.Origin, Msg{Kind: msgQueryHit, Seq: q.Seq, File: q.File, Holder: sv.id, Hops: myDist})
	}
	if q.TTL <= 1 {
		return
	}
	fwd := Msg{Kind: msgQuery, Origin: q.Origin, Seq: q.Seq, File: q.File, TTL: q.TTL - 1, Hops: myDist}
	for _, peer := range sv.sortedPeers() { // sorted: keeps runs reproducible
		if peer == prev || peer == q.Origin {
			continue // rules 2 and 3
		}
		sv.send(peer, fwd)
	}
}

// onWalkQuery advances one random walker: answer once if we hold the
// file, then hand the walker to a random neighbor (avoiding an
// immediate bounce when any alternative exists).
func (sv *Servent) onWalkQuery(prev int, q Msg) {
	myDist := q.Hops + 1
	k := queryKey{q.Origin, q.Seq}
	if _, answered := sv.seen[k]; !answered {
		sv.seen[k] = struct{}{}
		if sv.HasFile(q.File) {
			sv.send(q.Origin, Msg{Kind: msgQueryHit, Seq: q.Seq, File: q.File, Holder: sv.id, Hops: myDist})
		}
	}
	if q.TTL <= 1 {
		return
	}
	var candidates []int
	for _, peer := range sv.Peers() {
		if peer != prev && peer != q.Origin {
			candidates = append(candidates, peer)
		}
	}
	if len(candidates) == 0 {
		if _, back := sv.conns[prev]; back && prev != q.Origin {
			candidates = append(candidates, prev) // dead end: bounce
		} else {
			return
		}
	}
	next := candidates[sv.opt.RNG.Intn(len(candidates))]
	fwd := q
	fwd.TTL--
	fwd.Hops = myDist
	sv.send(next, fwd)
}

// onQueryHit accumulates an answer into the open request, tracking the
// minimum p2p and ad-hoc distances to a holder.
func (sv *Servent) onQueryHit(_ int, h Msg, adhocHops int) {
	r := sv.curReq
	if r == nil || h.Seq != r.qid {
		return // late answer: the window closed
	}
	r.answers++
	if r.answers == 1 {
		if d := sv.opt.Demand; d != nil {
			d.FirstAnswer(sv.id)
		}
	}
	if r.minP2P == 0 || h.Hops < r.minP2P {
		r.minP2P = h.Hops
		r.holder = h.Holder
	}
	if r.minAdhoc == 0 || adhocHops < r.minAdhoc {
		r.minAdhoc = adhocHops
	}
}
