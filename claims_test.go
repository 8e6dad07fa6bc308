package manetp2p

// The paper's §7 findings, and the ablations of the design choices they
// rest on, stated as one table of claims over paired seeds. Every arm
// runs the same seeds, so seed i of one arm and seed i of another seed
// every random stream alike and differ only in what the arms vary.
// EXPERIMENTS.md cites each claim by name; `go test -run TestClaims -v .`
// logs the verdict it quotes.

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"manetp2p/internal/aodv"
	"manetp2p/internal/manet"
	"manetp2p/internal/p2p"
	"manetp2p/internal/sim"
	"manetp2p/internal/stats"
	"manetp2p/internal/telemetry"
)

// The claim seeds are firstClaimSeed, firstClaimSeed+1, …: replication
// r of an arm's scenario runs seed firstClaimSeed+r. No fixture or other
// test draws them.
const firstClaimSeed, claimSeeds = 7001, 12

// An arm is one side of a claim: a scenario run once per claim seed in
// each world of the claim. opt, when set, holds the Build options no
// scenario field reaches (AODV's tuning, an overlay without queries).
type arm struct {
	name string
	sc   Scenario
	opt  manet.Options
}

// A world is a setting every arm of a claim runs in.
type world struct {
	routing RoutingKind
	loss    float64
}

func (w world) String() string {
	if w.loss == 0 {
		return w.routing.String()
	}
	return fmt.Sprintf("%s-loss%g", w.routing, w.loss)
}

// A relation judges arm a's per-seed values against b's.
type relation func(a, b []float64) (ok bool, verdict string)

// A claim holds when rel relates a's metric to b's in every world. With
// several b arms, b's value on a seed is the largest of theirs.
type claim struct {
	name   string
	metric func(*repResult) float64
	a      *arm
	rel    relation
	b      []*arm
	worlds []world
}

// algArm is one overlay algorithm at the paper's 50-node population.
func algArm(name string, alg Algorithm, horizon Duration, vary func(*Scenario)) *arm {
	sc := DefaultScenario(50, alg)
	sc.Duration, sc.SnapshotEvery = horizon, 0
	if vary != nil {
		vary(&sc)
	}
	return &arm{name: name, sc: sc}
}

// buildArm is algArm without queries, built with manet.Build under the
// given AODV tuning (nil for the defaults).
func buildArm(name string, alg Algorithm, horizon Duration, tuning *aodv.Config, vary func(*Scenario)) *arm {
	a := algArm(name, alg, horizon, vary)
	a.opt = manet.Options{NoQueries: true, AODV: tuning}
	return a
}

var (
	basic   = algArm("basic", Basic, 3600*sim.Second, nil)
	regular = algArm("regular", Regular, 3600*sim.Second, nil)
	random  = algArm("random", Random, 3600*sim.Second, nil)
	hybrid  = algArm("hybrid", Hybrid, 3600*sim.Second, nil)

	dupCached = buildArm("dupCached", Basic, 600*sim.Second, nil, nil)
	dupNaive  = buildArm("dupNaive", Basic, 600*sim.Second, func() *aodv.Config {
		cfg := aodv.DefaultConfig()
		cfg.DisableBcastDupCache = true
		return &cfg
	}(), nil)

	// Regular's backoff is off (MaxTimer equal to the fixed timer), so
	// only the discovery radius separates the two.
	equalTimers = func(sc *Scenario) {
		sc.Params.TimerBasic = 60 * sim.Second
		sc.Params.TimerInitial = 60 * sim.Second
		sc.Params.MaxTimer = 60 * sim.Second
	}
	fixedRadius   = buildArm("fixedRadius", Basic, 1200*sim.Second, nil, equalTimers)
	expandingRing = buildArm("expandingRing", Regular, 1200*sim.Second, nil, equalTimers)

	peerCacheOff = buildArm("peerCacheOff", Regular, 1800*sim.Second, nil, nil)
	peerCacheOn  = buildArm("peerCacheOn", Regular, 1800*sim.Second, nil, func(sc *Scenario) {
		sc.Params.PeerCache = p2p.PeerCacheConfig{Enabled: true}
	})
	downloadOff = algArm("downloadOff", Regular, 1800*sim.Second, nil)
	downloadOn  = algArm("downloadOn", Regular, 1800*sim.Second, func(sc *Scenario) {
		sc.Params.Download = p2p.DownloadConfig{Enabled: true}
	})
	queryFlood = algArm("queryFlood", Regular, 1200*sim.Second, nil)
	queryWalk  = algArm("queryWalk", Regular, 1200*sim.Second, func(sc *Scenario) {
		sc.Params.QueryMode = p2p.QueryRandomWalk
	})
)

// The paper's findings must hold over both routers, and their orderings
// under link-layer loss as well.
var (
	routers     = []world{{RoutingAODV, 0}, {RoutingFlood, 0}}
	paperWorlds = []world{{RoutingAODV, 0}, {RoutingFlood, 0}, {RoutingAODV, 0.1}, {RoutingAODV, 0.3}}
	aodvWorld   = []world{{RoutingAODV, 0}}
)

// The table: name, metric, a, relation, b, worlds.
var claims = []claim{
	{"fig7-connect-basic-most", perMember(telemetry.Connect), basic, more, []*arm{random, regular, hybrid}, paperWorlds},
	{"fig7-connect-random>hybrid", perMember(telemetry.Connect), random, more, []*arm{hybrid}, paperWorlds},
	{"fig7-connect-hybrid~regular", perMember(telemetry.Connect), hybrid, within(0.9, 1.1), []*arm{regular}, routers},
	{"fig9-ping-basic>=2x-rest", perMember(telemetry.Ping), basic, atLeast(2), []*arm{regular, random, hybrid}, paperWorlds},
	{"fig11-query-basic-most", perMember(telemetry.Query), basic, more, []*arm{regular, random, hybrid}, paperWorlds},
	{"dupcache-storm>=5x", rxPerNode, dupNaive, atLeast(5), []*arm{dupCached}, aodvWorld},
	{"ring-fewer-connects", perMember(telemetry.Connect), fixedRadius, more, []*arm{expandingRing}, aodvWorld},
	{"peercache-fewer-connects", perMember(telemetry.Connect), peerCacheOff, more, []*arm{peerCacheOn}, aodvWorld},
	{"download-finds-more", foundRate, downloadOn, more, []*arm{downloadOff}, aodvWorld},
	{"walk-fewer-queries", perMember(telemetry.Query), queryFlood, more, []*arm{queryWalk}, aodvWorld},
	{"flood-finds-more", foundRate, queryFlood, more, []*arm{queryWalk}, aodvWorld},
}

// perMember is the mean count of class messages a member received.
func perMember(class telemetry.Class) func(*repResult) float64 {
	return func(rr *repResult) float64 { return stats.Summarize(rr.Totals[class]).Mean }
}

func rxPerNode(rr *repResult) float64 { return stats.Summarize(rr.RxFrames).Mean }

func foundRate(rr *repResult) float64 {
	found := 0
	rr.Requests.Each(0, func(_ int, q *telemetry.Outcome) {
		if q.Answers > 0 {
			found++
		}
	})
	return float64(found) / float64(rr.Requests.N)
}

// more holds when a is above b on enough seeds: an exact one-sided sign
// test over the untied seeds at α = 0.05.
func more(a, b []float64) (bool, string) {
	wins, ties := 0, 0
	for i := range a {
		switch {
		case a[i] > b[i]:
			wins++
		case a[i] == b[i]:
			ties++
		}
	}
	p := stats.SignTest(wins, len(a)-ties)
	return p <= 0.05, fmt.Sprintf("above on %d of %d untied seeds, sign test p = %.4f", wins, len(a)-ties, p)
}

// atLeast holds when a is at least k times b on every seed.
func atLeast(k float64) relation {
	return func(a, b []float64) (bool, string) {
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range a {
			r := a[i] / b[i]
			lo, hi = min(lo, r), max(hi, r)
		}
		return lo >= k, fmt.Sprintf("%.2f–%.2f× per seed, %g× wanted on every one", lo, hi, k)
	}
}

// within holds when the 95 % confidence interval of the mean paired
// ratio a/b lies inside [lo, hi].
func within(lo, hi float64) relation {
	return func(a, b []float64) (bool, string) {
		ratios := make([]float64, len(a))
		for i := range a {
			ratios[i] = a[i] / b[i]
		}
		s := stats.Summarize(ratios)
		l, h := s.Mean-s.CI95(), s.Mean+s.CI95()
		return l >= lo && h <= hi, fmt.Sprintf("ratio %.3f, CI95 [%.3f, %.3f] against the band [%g, %g] (seeds %.3f–%.3f)",
			s.Mean, l, h, lo, hi, s.Min, s.Max)
	}
}

// runArm runs the claim seeds of arm a in world w, each under the
// invariant checker. The checker only reads, so it moves no verdict.
func runArm(p *Pool, a *arm, w world) ([]*repResult, error) {
	sc := a.sc
	sc.Seed, sc.Replications = firstClaimSeed, claimSeeds
	sc.Routing, sc.LossProb = w.routing, w.loss
	sc.Invariants = &InvariantConfig{Enabled: true}
	if a.opt == (manet.Options{}) {
		return p.runReps(sc, nil)
	}
	// Run and collect as runReplication does, in a slot of p.
	reps := make([]*repResult, sc.Replications)
	for r := range reps {
		net, err := manet.Build(sc, r, a.opt)
		if err != nil {
			return nil, err
		}
		p.slots <- struct{}{}
		net.Run(sc.Duration)
		<-p.slots
		reps[r] = new(repResult)
		for _, s := range sections {
			if s.collect != nil {
				s.collect(sc, net, reps[r])
			}
		}
	}
	return reps, nil
}

// TestClaims runs every (arm, world) of the table once, concurrently
// under one pool, then judges each claim in each of its worlds.
func TestClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("the claim table runs hundreds of 50-node replications")
	}
	type run struct {
		arm   *arm
		world world
	}
	index := map[run]int{}
	var runs []run
	for _, c := range claims {
		for _, w := range c.worlds {
			for _, a := range append([]*arm{c.a}, c.b...) {
				if _, ok := index[run{a, w}]; !ok {
					index[run{a, w}] = len(runs)
					runs = append(runs, run{a, w})
				}
			}
		}
	}
	reps := make([][]*repResult, len(runs))
	errs := make([]error, len(runs))
	pool := NewPool(0)
	var wg sync.WaitGroup
	for i, r := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reps[i], errs[i] = runArm(pool, r.arm, r.world)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	values := func(c claim, a *arm, w world) []float64 {
		v := make([]float64, claimSeeds)
		for i, rr := range reps[index[run{a, w}]] {
			v[i] = c.metric(rr)
		}
		return v
	}
	// checked fails world w of claim c for each replication of its
	// arms the invariant checker did not pass.
	checked := func(t *testing.T, c claim, w world) bool {
		clean := true
		for _, a := range append([]*arm{c.a}, c.b...) {
			for i, rr := range reps[index[run{a, w}]] {
				switch {
				case !rr.Checked:
					t.Errorf("claim %s, arm %s, world %s, seed %d: the invariant checker did not run",
						c.name, a.name, w, firstClaimSeed+i)
				case rr.ViolTotal > 0:
					v := rr.Violations[0]
					t.Errorf("claim %s, arm %s, world %s, seed %d: %d invariant violations, the first %s/%s: %s",
						c.name, a.name, w, firstClaimSeed+i, rr.ViolTotal, v.Layer, v.Rule, v)
				default:
					continue
				}
				clean = false
			}
		}
		return clean
	}
	for _, c := range claims {
		t.Run(c.name, func(t *testing.T) {
			for _, w := range c.worlds {
				if !checked(t, c, w) {
					continue
				}
				a, b := values(c, c.a, w), values(c, c.b[0], w)
				for _, other := range c.b[1:] {
					for i, v := range values(c, other, w) {
						b[i] = max(b[i], v)
					}
				}
				ok, verdict := c.rel(a, b)
				verdict = fmt.Sprintf("%s: mean %.4g against %.4g; %s", w,
					stats.Summarize(a).Mean, stats.Summarize(b).Mean, verdict)
				if !ok {
					t.Error(verdict)
					continue
				}
				t.Log(verdict)
			}
		})
	}
}
