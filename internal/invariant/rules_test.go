package invariant

import (
	"strings"
	"testing"

	"manetp2p/internal/geom"
	"manetp2p/internal/p2p"
	"manetp2p/internal/radio"
	"manetp2p/internal/sim"
)

// This file proves that every per-algorithm overlay rule fires. The
// clean-network tests only show the rules stay silent on honest runs; a
// rule that stopped firing would pass them all. Each case feeds one
// corrupt hand-built View through checkNode and checkPairs under an
// algorithm that forbids it, then the same View under an algorithm for
// which that rule has nothing to say.

// ruleNodes is how many servents the hand-built checker holds: node 0
// under test, its peers 1..4, and one spare.
const ruleNodes = 6

// ruleChecker builds a checker over ruleNodes real servents running alg
// (no router: nothing is ever sent) with a one-second grace window.
func ruleChecker(t *testing.T, alg p2p.Algorithm) *Checker {
	t.Helper()
	s := sim.New(1)
	med, err := radio.NewMedium(s, radio.Config{
		Arena:    geom.Rect{W: 100, H: 100},
		Range:    10,
		NumNodes: ruleNodes,
		Latency:  2 * sim.Millisecond,
		Jitter:   sim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	par := p2p.DefaultParams()
	svs := make([]*p2p.Servent, ruleNodes)
	ledger := p2p.NewQueryLedger(ruleNodes)
	for i := range svs {
		svs[i] = p2p.NewServent(i, s, nil, par, alg, p2p.Options{RNG: s.NewRand(), Ledger: ledger})
	}
	return New(Config{Enabled: true, Grace: sim.Second}, Target{
		Sim: s, Medium: med, Servents: svs, Algorithm: alg, Params: par,
	})
}

// out and in are healthy initiator- and responder-side connections;
// the cases set role flags on them.
func out(peer int) p2p.ConnView { return p2p.ConnView{Peer: peer, Initiator: true, PingArmed: true} }
func in(peer int) p2p.ConnView  { return p2p.ConnView{Peer: peer, DeadlineArmed: true} }

func random(c p2p.ConnView) p2p.ConnView   { c.Random = true; return c }
func toMaster(c p2p.ConnView) p2p.ConnView { c.ToMaster = true; return c }
func toSlave(c p2p.ConnView) p2p.ConnView  { c.ToSlave = true; return c }
func mesh(c p2p.ConnView) p2p.ConnView     { c.Master = true; return c }

func joined(state p2p.HybridState, conns ...p2p.ConnView) p2p.View {
	return p2p.View{Joined: true, State: state, Conns: conns}
}

func TestPerAlgorithmRulesFire(t *testing.T) {
	cases := []struct {
		name   string
		rule   string
		detail string // substring of the fired violation
		self   p2p.View
		peer   p2p.View // node 1
		bad    p2p.Algorithm
		legal  p2p.Algorithm // the same views under it: rule silent
	}{
		{"random link outside Random", "conn-flags", "random link under algorithm Regular",
			joined(p2p.StateInitial, random(out(1))), joined(p2p.StateInitial, random(in(0))),
			p2p.Regular, p2p.Random},
		{"role flag outside Hybrid", "conn-flags", "hybrid role flags (toMaster=false toSlave=false master=true) under algorithm Regular",
			joined(p2p.StateMaster, mesh(out(1))), joined(p2p.StateMaster, mesh(in(0))),
			p2p.Regular, p2p.Hybrid},
		{"hybrid link without role", "conn-flags", "must carry exactly one role flag",
			joined(p2p.StateInitial, out(1)), joined(p2p.StateInitial, in(0)),
			p2p.Hybrid, p2p.Regular},
		{"MAXNCONN", "conn-cap", "4 conns > MAXNCONN 3",
			joined(p2p.StateMaster, mesh(in(1)), mesh(in(2)), toSlave(in(3)), toSlave(in(4))), p2p.View{},
			p2p.Regular, p2p.Hybrid},
		{"Random's regular budget", "conn-cap", "3 regular conns > MAXNCONN-1 2",
			joined(p2p.StateInitial, out(1), out(2), out(3)), p2p.View{},
			p2p.Random, p2p.Regular},
		{"master mesh", "conn-cap", "4 master-mesh links > MAXNCONN 3",
			joined(p2p.StateMaster, mesh(out(1)), mesh(out(2)), mesh(out(3)), mesh(out(4))), p2p.View{},
			p2p.Hybrid, p2p.Random},
		{"one random link", "random-cap", "2 random links > 1",
			joined(p2p.StateInitial, random(out(1)), random(out(2))), p2p.View{},
			p2p.Random, p2p.Regular},
		{"MAXNSLAVES", "slave-cap", "4 slaves > MAXNSLAVES 3",
			joined(p2p.StateMaster, toSlave(in(1)), toSlave(in(2)), toSlave(in(3)), toSlave(in(4))), p2p.View{},
			p2p.Hybrid, p2p.Regular},
		{"role state outside Hybrid", "role-flags", "state master under algorithm Regular",
			joined(p2p.StateMaster), p2p.View{},
			p2p.Regular, p2p.Hybrid},
		{"initial peer holding a link", "role-flags", "state initial with 1 conns",
			joined(p2p.StateInitial, out(1)), joined(p2p.StateInitial, in(0)),
			p2p.Hybrid, p2p.Regular},
		{"reserved with nothing in flight", "reserved-leak", "reserved state with nothing in flight",
			p2p.View{Joined: true, State: p2p.StateReserved}, p2p.View{},
			p2p.Hybrid, p2p.Regular},
		{"role flags disagree", "role-asym", "role flags disagree",
			joined(p2p.StateSlave, toMaster(out(1))), joined(p2p.StateMaster, mesh(in(0))),
			p2p.Hybrid, p2p.Regular},
		{"slave of a non-master", "slave-master", "our master is in state initial",
			joined(p2p.StateSlave, toMaster(out(1))), joined(p2p.StateInitial, toSlave(in(0))),
			p2p.Hybrid, p2p.Regular},
		{"master of a non-slave", "master-slave", "our slave is in state master",
			joined(p2p.StateMaster, toSlave(in(1))), joined(p2p.StateMaster, toMaster(out(0))),
			p2p.Hybrid, p2p.Regular},
		{"mesh link to a non-master", "mesh-master", "mesh peer is in state initial",
			joined(p2p.StateMaster, mesh(out(1))), joined(p2p.StateInitial, mesh(in(0))),
			p2p.Hybrid, p2p.Regular},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, alg := range []p2p.Algorithm{tc.bad, tc.legal} {
				c := ruleChecker(t, alg)
				c.views[0], c.views[1] = tc.self, tc.peer
				c.checkNode(0, &c.views[0])
				c.checkPairs(0, &c.views[0])
				c.t.Sim.Run(c.t.Sim.Now() + 2*c.cfg.Grace) // pair rules report once past grace
				c.checkPairs(0, &c.views[0])

				var hit *Violation
				for k, v := range c.Violations() {
					if v.Layer == "p2p" && v.Rule == tc.rule {
						hit = &c.Violations()[k]
						break
					}
				}
				switch {
				case alg == tc.bad && hit == nil:
					for _, v := range c.Violations() {
						t.Logf("violation: %s", v.String())
					}
					t.Errorf("%v: rule %s did not fire", alg, tc.rule)
				case alg == tc.bad && (hit.Node != 0 || !strings.Contains(hit.Detail, tc.detail)):
					t.Errorf("%v: %s, want node=0 and detail containing %q", alg, hit.String(), tc.detail)
				case alg == tc.legal && hit != nil:
					t.Errorf("%v: rule %s fired on a view it allows: %s", alg, tc.rule, hit.String())
				}
			}
		})
	}

	// The reservation's expiry is a pending entry's timeout, so the shared
	// pending-leak rule covers it: armed, a reservation is silent; unarmed,
	// it leaks.
	t.Run("reservation without expiry", func(t *testing.T) {
		for _, armed := range []bool{true, false} {
			c := ruleChecker(t, p2p.Hybrid)
			c.views[0] = p2p.View{Joined: true, State: p2p.StateReserved,
				Pending: []p2p.PendingView{{Peer: 2, TimeoutArmed: armed}}}
			c.checkNode(0, &c.views[0])
			var rules []string
			for _, v := range c.Violations() {
				rules = append(rules, v.Rule)
			}
			want := "pending-leak"
			if armed {
				want = ""
			}
			if got := strings.Join(rules, ","); got != want {
				t.Errorf("timeout armed=%v: rules [%s], want [%s]", armed, got, want)
			}
		}
	})
}

// TestSymmetryGraceFollowsTheLink pins how long a one-sided link may
// last: the grace window runs from the later of the first observation
// and the link's own Since. Two separate episodes on the same pair (torn
// down and re-installed between two sweeps) are not one long one, while
// a link that really stays one-sided still fires.
func TestSymmetryGraceFollowsTheLink(t *testing.T) {
	c := ruleChecker(t, p2p.Regular)
	grace := c.cfg.Grace
	sweep := func(since sim.Time) int {
		c.views[0] = joined(p2p.StateInitial, p2p.ConnView{Peer: 1, Initiator: true, PingArmed: true, Since: since})
		c.views[1] = joined(p2p.StateInitial)
		c.checkPairs(0, &c.views[0])
		n := 0
		for _, v := range c.Violations() {
			if v.Rule == "symmetry" {
				n++
			}
		}
		return n
	}
	if n := sweep(0); n != 0 {
		t.Fatalf("a fresh one-sided link fired %d times", n)
	}
	c.t.Sim.Run(c.t.Sim.Now() + 2*grace)
	if n := sweep(c.t.Sim.Now() - grace/2); n != 0 {
		t.Errorf("a link re-installed %v ago fired: the episode before it was counted against it", grace/2)
	}
	c.t.Sim.Run(c.t.Sim.Now() + 2*grace)
	if n := sweep(c.t.Sim.Now() - 5*grace/2); n != 1 {
		t.Errorf("a link one-sided for %v fired %d times, want 1", 5*grace/2, n)
	}
}
