// Package graphs analyzes overlay snapshots for the paper's small-world
// discussion (§6.1.2): average clustering coefficient, characteristic
// pathlength, and connected components, plus the reference values for
// regular and random graphs the paper quotes (n/2k and log n / log k).
package graphs

import "math"

// Graph is an undirected graph as adjacency lists over dense ids;
// entries may be nil for absent nodes.
type Graph struct {
	Adj [][]int
}

// New builds a Graph from adjacency lists, deduplicating and dropping
// self-loops so downstream metrics are well-defined.
func New(adj [][]int) *Graph {
	clean := make([][]int, len(adj))
	for i, nbrs := range adj {
		seen := map[int]bool{}
		for _, j := range nbrs {
			if j != i && j >= 0 && j < len(adj) && !seen[j] {
				seen[j] = true
				clean[i] = append(clean[i], j)
			}
		}
	}
	return &Graph{Adj: clean}
}

// NumEdges counts undirected edges (mutual pairs counted once; an edge
// present in only one direction still counts once).
func (g *Graph) NumEdges() int {
	n := 0
	for i, nbrs := range g.Adj {
		for _, j := range nbrs {
			if j > i || !g.has(j, i) {
				n++
			}
		}
	}
	return n
}

func (g *Graph) has(i, j int) bool {
	for _, k := range g.Adj[i] {
		if k == j {
			return true
		}
	}
	return false
}

// ClusteringCoefficient returns the average local clustering coefficient
// over nodes with degree >= 2: real connections between a node's
// neighbors divided by the possible connections between them (§6.1.2).
// Nodes with fewer than two neighbors are excluded (their coefficient is
// undefined). Returns 0 when no node qualifies.
func (g *Graph) ClusteringCoefficient() float64 {
	sum, count := 0.0, 0
	for _, nbrs := range g.Adj {
		k := len(nbrs)
		if k < 2 {
			continue
		}
		real := 0
		for a := 0; a < k; a++ {
			for b := a + 1; b < k; b++ {
				if g.has(nbrs[a], nbrs[b]) || g.has(nbrs[b], nbrs[a]) {
					real++
				}
			}
		}
		sum += float64(real) / float64(k*(k-1)/2)
		count++
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}

// bfsFrom fills dist (pre-sized, -1 initialized) from src; returns the
// number of reached nodes including src, plus the queue so callers keep
// its capacity growth across sources. The frontier advances by index
// rather than popping the head, so the backing array never shrinks.
func (g *Graph) bfsFrom(src int, dist []int, queue []int) ([]int, int) {
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue = append(queue[:0], src)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range g.Adj[u] {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return queue, len(queue)
}

// CharacteristicPathLength returns the mean shortest-path length over
// all connected ordered pairs, and the number of such pairs. Returns
// (0, 0) for graphs with no connected pairs.
func (g *Graph) CharacteristicPathLength() (float64, int) {
	n := len(g.Adj)
	dist := make([]int, n)
	queue := make([]int, 0, n)
	sum, pairs := 0.0, 0
	for s := 0; s < n; s++ {
		if len(g.Adj[s]) == 0 {
			continue
		}
		queue, _ = g.bfsFrom(s, dist, queue)
		for t, d := range dist {
			if t != s && d > 0 {
				sum += float64(d)
				pairs++
			}
		}
	}
	if pairs == 0 {
		return 0, 0
	}
	return sum / float64(pairs), pairs
}

// Components returns the sizes of connected components (isolated nodes
// count as size-1 components only if they have an entry in Adj with
// degree zero and appear as a member id; callers pass member-restricted
// graphs).
func (g *Graph) Components(member func(int) bool) []int {
	n := len(g.Adj)
	dist := make([]int, n)
	visited := make([]bool, n)
	queue := make([]int, 0, n)
	var sizes []int
	for s := 0; s < n; s++ {
		if visited[s] || (member != nil && !member(s)) {
			continue
		}
		queue, _ = g.bfsFrom(s, dist, queue)
		size := 0
		for v, d := range dist {
			if d >= 0 {
				visited[v] = true
				size++
			}
		}
		sizes = append(sizes, size)
	}
	return sizes
}

// LargestComponentFraction returns the share of members in the largest
// component.
func (g *Graph) LargestComponentFraction(member func(int) bool) float64 {
	sizes := g.Components(member)
	total, max := 0, 0
	for _, s := range sizes {
		total += s
		if s > max {
			max = s
		}
	}
	if total == 0 {
		return 0
	}
	return float64(max) / float64(total)
}

// RegularPathLength is the paper's reference pathlength for a large
// regular graph: n / (2k).
func RegularPathLength(n, k int) float64 {
	if k <= 0 {
		return math.Inf(1)
	}
	return float64(n) / (2 * float64(k))
}

// RandomPathLength is the paper's reference pathlength for a large
// random graph: log n / log k.
func RandomPathLength(n, k int) float64 {
	if k <= 1 || n <= 1 {
		return math.Inf(1)
	}
	return math.Log(float64(n)) / math.Log(float64(k))
}
