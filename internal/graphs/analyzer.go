// The allocation-free analytics engine. Graph (graphs.go) is the
// reference implementation: adjacency lists, per-metric traversals, a
// fresh allocation per call — easy to audit against the paper. Analyzer
// computes the same metrics bit-for-bit from a flat CSR layout with
// scratch that persists across snapshots, so the per-tick overlay
// analysis (clustering, characteristic pathlength, components) costs
// zero allocations at steady state. The equivalence is enforced by
// property tests (analyzer_test.go) and by the golden fixtures, which
// pin every metric the Analyzer now produces.
package graphs

import "math/bits"

// Scratch is the reusable flat adjacency an Analyzer consumes: a CSR
// (compressed sparse row) neighbor array plus a per-pair link bitmap.
// Fillers (manet.Network.AppendOverlayAdjacency, Analyzer.Load) build it
// row by row in node-id order; rows must be deduplicated, self-free and
// in-range — Scratch applies no cleaning of its own.
type Scratch struct {
	n     int
	words int      // bitmap words per row: ceil(n/64)
	off   []int32  // row offsets; len n+1 once every row is closed
	nbrs  []int32  // concatenated neighbor ids
	bits  []uint64 // n rows x words link bitmap (MarkLink/HasLink)
}

// Reset prepares the scratch for a graph over n dense node ids,
// clearing the link bitmap and dropping all rows. Backing arrays are
// kept, so a steady-state refill allocates nothing.
func (s *Scratch) Reset(n int) {
	s.n = n
	s.words = (n + 63) / 64
	s.off = append(s.off[:0], 0)
	s.nbrs = s.nbrs[:0]
	need := n * s.words
	if cap(s.bits) < need {
		s.bits = make([]uint64, need)
	} else {
		s.bits = s.bits[:need]
		clear(s.bits)
	}
}

// MarkLink records a directed link i -> j in the bitmap. Fillers use it
// for the symmetric-link check: mark every raw link in one pass, then
// test the reverse direction in O(1) while building rows, instead of
// scanning the peer's neighbor list per link.
func (s *Scratch) MarkLink(i, j int) {
	s.bits[i*s.words+(j>>6)] |= 1 << (uint(j) & 63)
}

// HasLink reports whether MarkLink(i, j) was called since Reset.
func (s *Scratch) HasLink(i, j int) bool {
	return s.bits[i*s.words+(j>>6)]&(1<<(uint(j)&63)) != 0
}

// AppendNeighbor adds j to the currently open row.
func (s *Scratch) AppendNeighbor(j int) { s.nbrs = append(s.nbrs, int32(j)) }

// EndRow closes the current row; call exactly once per node id, in
// ascending order, including for nodes with no neighbors.
func (s *Scratch) EndRow() { s.off = append(s.off, int32(len(s.nbrs))) }

// NumNodes returns the node count set by the last Reset.
func (s *Scratch) NumNodes() int { return s.n }

// Degree returns the filled out-degree of node i.
func (s *Scratch) Degree(i int) int { return int(s.off[i+1] - s.off[i]) }

// Row returns node i's neighbor ids, borrowed until the next Reset.
func (s *Scratch) Row(i int) []int32 { return s.nbrs[s.off[i]:s.off[i+1]] }

// Metrics is one snapshot's worth of overlay analytics, everything the
// per-tick samplers read, computed in a single Analyze call.
type Metrics struct {
	Clustering float64 // average local clustering coefficient (degree >= 2 nodes)
	PathLength float64 // mean shortest path over connected ordered pairs
	Pairs      int     // connected ordered pairs behind PathLength
	Largest    float64 // largest-component share of the member population
	Components int     // component count (member-filtered, like Graph.Components)
	Edges      int     // undirected edges (either-direction pairs counted once)
}

// Analyzer computes Graph's metrics allocation-free from a Scratch. The
// zero value is ready to use; one Analyzer serves one goroutine. All
// floating-point accumulation follows the reference implementation
// operation for operation, so results are bit-identical to Graph's —
// the golden fixtures depend on that.
type Analyzer struct {
	// S is the adjacency under analysis; fill it with Load or hand it to
	// an external filler (Network.AppendOverlayAdjacency) before Analyze.
	S Scratch

	// BFS scratch: visited is version-stamped so no O(n) reset runs per
	// source, and the frontier keeps its backing array across sources.
	visit []uint32
	dist  []int32
	queue []int32
	ver   uint32

	// nbr is a one-row bitset: the current node's neighbor set during
	// clustering, the dedupe set during Load.
	nbr []uint64

	// Multi-source BFS scratch (one word per node): bit b of cur[v]
	// means source base+b's current frontier holds v; reach accumulates
	// every source that discovered v; nxt builds the new frontier.
	// frontier lists the nodes with nonzero cur so the propagate sweep
	// never visits inactive nodes; cur is consumed back to all-zero
	// every level, which keeps it valid across batches and Analyze
	// calls without O(n) clears. srcs packs the eligible source ids so
	// batches carry 64 live sources each, not 64 consecutive ids.
	cur, nxt, reach []uint64
	frontier, srcs  []int32

	// Component scratch, stamped per Analyze call.
	compSeen []uint32
	gen      uint32
	sizes    []int
}

// ensure sizes the per-node scratch for the current Scratch, keeping
// backing arrays across calls. Stale version stamps are harmless: both
// counters only move forward (with an explicit wrap reset), so a stale
// entry can never equal a fresh stamp.
func (a *Analyzer) ensure() {
	n := a.S.n
	if cap(a.visit) < n {
		a.visit = make([]uint32, n)
		a.dist = make([]int32, n)
		a.compSeen = make([]uint32, n)
		a.cur = make([]uint64, n)
		a.nxt = make([]uint64, n)
		a.reach = make([]uint64, n)
		a.frontier = make([]int32, 0, n)
		a.srcs = make([]int32, 0, n)
		if cap(a.queue) < n {
			a.queue = make([]int32, 0, n)
		}
	} else {
		a.visit = a.visit[:n]
		a.dist = a.dist[:n]
		a.compSeen = a.compSeen[:n]
		a.cur = a.cur[:n]
		a.nxt = a.nxt[:n]
		a.reach = a.reach[:n]
	}
	if cap(a.nbr) < a.S.words {
		a.nbr = make([]uint64, a.S.words)
	} else {
		a.nbr = a.nbr[:a.S.words]
	}
	if a.ver > ^uint32(0)-uint32(n)-2 {
		clear(a.visit)
		a.ver = 0
	}
	if a.gen == ^uint32(0) {
		clear(a.compSeen)
		a.gen = 0
	}
}

// Load fills the scratch from adjacency lists, applying New's cleaning
// rules: duplicates, self-loops and out-of-range ids are dropped,
// first-seen order is kept. Entries may be nil for absent nodes.
func (a *Analyzer) Load(adj [][]int) {
	a.S.Reset(len(adj))
	a.ensure()
	for i, row := range adj {
		start := len(a.S.nbrs)
		for _, j := range row {
			if j != i && j >= 0 && j < a.S.n && a.nbr[j>>6]&(1<<(uint(j)&63)) == 0 {
				a.nbr[j>>6] |= 1 << (uint(j) & 63)
				a.S.AppendNeighbor(j)
			}
		}
		a.S.EndRow()
		for _, j := range a.S.nbrs[start:] {
			a.nbr[j>>6] &^= 1 << (uint(j) & 63)
		}
	}
}

// buildSym rewrites the scratch bitmap as the symmetric closure of the
// CSR rows: bit (i,j) set iff i->j or j->i is an edge. The directed
// marks a filler left behind are consumed by then, so overwriting is
// safe.
func (a *Analyzer) buildSym() {
	s := &a.S
	clear(s.bits)
	for i := 0; i < s.n; i++ {
		for _, j := range s.Row(i) {
			s.MarkLink(i, int(j))
			s.MarkLink(int(j), i)
		}
	}
}

// bfs runs one breadth-first traversal from src using the stamped
// visited array, leaving the reached nodes (discovery order) in
// a.queue. It returns the reached count including src and the sum of
// distances to the reached nodes. Distances are small integers, so the
// int64 sum converts to float64 exactly — order of accumulation cannot
// change the result the reference implementation computes.
func (a *Analyzer) bfs(src int32) (reached int, sum int64) {
	a.ver++
	ver := a.ver
	off, nbrs := a.S.off, a.S.nbrs
	a.visit[src] = ver
	a.dist[src] = 0
	q := append(a.queue[:0], src)
	for head := 0; head < len(q); head++ {
		u := q[head]
		du := a.dist[u]
		for _, v := range nbrs[off[u]:off[u+1]] {
			if a.visit[v] != ver {
				a.visit[v] = ver
				a.dist[v] = du + 1
				sum += int64(du) + 1
				q = append(q, v)
			}
		}
	}
	a.queue = q
	return len(q), sum
}

// Analyze computes every metric in one sweep over the filled scratch.
// The member filter (nil admits all) scopes the component metrics the
// way Graph.Components does; clustering and pathlength ignore it, like
// their Graph counterparts. Steady state allocates nothing.
func (a *Analyzer) Analyze(member func(int) bool) Metrics {
	a.ensure()
	n := a.S.n
	w := a.S.words
	var m Metrics

	a.buildSym()

	// Edges: unordered pairs with at least one direction, counted as
	// set bits in the strict upper triangle of the symmetric closure.
	for i := 0; i < n; i++ {
		row := a.S.bits[i*w : (i+1)*w]
		wi := i >> 6
		m.Edges += bits.OnesCount64(row[wi] &^ (^uint64(0) >> (63 - uint(i)&63)))
		for k := wi + 1; k < w; k++ {
			m.Edges += bits.OnesCount64(row[k])
		}
	}

	// Clustering: for each node, mark its neighbor set once, then count
	// neighbor-pair links by intersecting each neighbor's symmetric row
	// with the bitset — every linked pair is seen from both ends, so
	// halve the total. Same accumulation order and operations as
	// Graph.ClusteringCoefficient.
	csum, ccount := 0.0, 0
	for i := 0; i < n; i++ {
		row := a.S.Row(i)
		k := len(row)
		if k < 2 {
			continue
		}
		for _, j := range row {
			a.nbr[j>>6] |= 1 << (uint(j) & 63)
		}
		linked := 0
		for _, j := range row {
			sym := a.S.bits[int(j)*w : (int(j)+1)*w]
			for wd := 0; wd < w; wd++ {
				linked += bits.OnesCount64(sym[wd] & a.nbr[wd])
			}
		}
		for _, j := range row {
			a.nbr[j>>6] &^= 1 << (uint(j) & 63)
		}
		csum += float64(linked/2) / float64(k*(k-1)/2)
		ccount++
	}
	if ccount > 0 {
		m.Clustering = csum / float64(ccount)
	}

	// Pathlength: all-pairs BFS, 64 sources per wave. Bit b of cur[v]
	// says source base+b's frontier holds v; one sweep over the CSR rows
	// advances all 64 traversals a level at once, so the per-source cost
	// drops from O(n+E) to O((n+E)/64) word operations per level. Each
	// (source, target) pair is counted exactly once, at the level that
	// first reaches the target — its BFS distance — and the distances
	// are small integers summed in int64, so the total converts to
	// float64 exactly: accumulation order cannot diverge from
	// Graph.CharacteristicPathLength, whatever the batching.
	off, nbrs := a.S.off, a.S.nbrs
	a.srcs = a.srcs[:0]
	for s := 0; s < n; s++ {
		if a.S.Degree(s) > 0 {
			a.srcs = append(a.srcs, int32(s))
		}
	}
	var pathSum int64
	for base := 0; base < len(a.srcs); base += 64 {
		hi := base + 64
		if hi > len(a.srcs) {
			hi = len(a.srcs)
		}
		clear(a.reach)
		a.frontier = a.frontier[:0]
		for k := base; k < hi; k++ {
			s := a.srcs[k]
			b := uint64(1) << uint(k-base)
			a.cur[s] = b
			a.reach[s] = b
			a.frontier = append(a.frontier, s)
		}
		for level := int64(1); len(a.frontier) > 0; level++ {
			for _, u := range a.frontier {
				cu := a.cur[u]
				a.cur[u] = 0
				for _, v := range nbrs[off[u]:off[u+1]] {
					a.nxt[v] |= cu
				}
			}
			a.frontier = a.frontier[:0]
			for v := 0; v < n; v++ {
				nw := a.nxt[v] &^ a.reach[v]
				if nw != 0 {
					a.reach[v] |= nw
					a.cur[v] = nw
					a.frontier = append(a.frontier, int32(v))
					c := bits.OnesCount64(nw)
					m.Pairs += c
					pathSum += level * int64(c)
				}
			}
			clear(a.nxt)
		}
	}
	if m.Pairs > 0 {
		m.PathLength = float64(pathSum) / float64(m.Pairs)
	}

	// Components: one plain BFS per fresh admitted source, replicating
	// Graph.Components exactly — including its size accounting on
	// asymmetric graphs, where nodes already claimed by an earlier
	// component still count toward a later traversal's size.
	a.gen++
	gen := a.gen
	a.sizes = a.sizes[:0]
	for s := 0; s < n; s++ {
		if a.compSeen[s] == gen || (member != nil && !member(s)) {
			continue
		}
		if a.S.Degree(s) == 0 {
			a.compSeen[s] = gen
			a.sizes = append(a.sizes, 1)
			continue
		}
		reached, _ := a.bfs(int32(s))
		for _, v := range a.queue {
			a.compSeen[v] = gen
		}
		a.sizes = append(a.sizes, reached)
	}
	m.Components = len(a.sizes)
	total, max := 0, 0
	for _, s := range a.sizes {
		total += s
		if s > max {
			max = s
		}
	}
	if total > 0 {
		m.Largest = float64(max) / float64(total)
	}
	return m
}

// ComponentSizes returns the last Analyze's component sizes in
// start-node order, borrowed until the next Analyze.
func (a *Analyzer) ComponentSizes() []int { return a.sizes }
