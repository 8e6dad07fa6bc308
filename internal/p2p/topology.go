package p2p

// This file reproduces Table 1 of the paper: the qualitative comparison
// of p2p topology families (derived from Minar's "Distributed Systems
// Topologies"). It is data, not measurement — exposed so cmd/repro can
// print the table alongside the simulated results.

// TopologyTrait is one row of Table 1.
type TopologyTrait struct {
	Property string
	Values   [3]string // centralized, decentralized, hybrid
}

// Table1 returns the paper's Table 1 verbatim.
func Table1() []TopologyTrait {
	return []TopologyTrait{
		{Property: "Manageable", Values: [3]string{"yes", "no", "no"}},
		{Property: "Extensible", Values: [3]string{"no", "yes", "yes"}},
		{Property: "Fault-Tolerant", Values: [3]string{"no", "yes", "yes"}},
		{Property: "Secure", Values: [3]string{"yes", "no", "no"}},
		{Property: "Lawsuit-proof", Values: [3]string{"no", "yes", "yes"}},
		{Property: "Scalable", Values: [3]string{"depend", "maybe", "apparently"}},
	}
}
