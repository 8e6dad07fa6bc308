package manet

import (
	"encoding/json"
	"strings"
	"testing"

	"manetp2p/internal/fault"
	"manetp2p/internal/p2p"
	"manetp2p/internal/radio"
	"manetp2p/internal/sim"
	"manetp2p/internal/trace"
)

// nodeLog is an Options.Trace writer that keeps the node lifecycle
// events; the tracer writes one JSON line per Write.
type nodeLog struct{ evs []trace.Event }

func (l *nodeLog) Write(p []byte) (int, error) {
	var e trace.Event
	if err := json.Unmarshal(p, &e); err != nil {
		return 0, err
	}
	if e.Kind == trace.KindNode {
		l.evs = append(l.evs, e)
	}
	return len(p), nil
}

const (
	crashAt  = 600 * sim.Second
	crashFor = 600 * sim.Second
)

// crashChurnScenario is 30 nodes running Regular under churn (mean
// uptime 300 s, downtime 60 s), with a crash group of 10 members at
// crashAt for crashFor.
func crashChurnScenario(seed int64) Scenario {
	sc := DefaultScenario(30, p2p.Regular)
	sc.Seed = seed
	sc.Churn = ChurnConfig{MeanUptime: 300 * sim.Second, MeanDowntime: 60 * sim.Second}
	sc.Faults = fault.Plan{Events: []fault.Event{fault.CrashGroupEvent(crashAt, crashFor, 10)}}
	return sc
}

// A crash does not end churn: every member a crash group took down
// records a churn event after the crash clears. Over the 4,800 s left
// after it, a member that churns at all misses every event with
// probability about e^-16 (one departure per 300 s of uptime).
func TestCrashDoesNotEndChurn(t *testing.T) {
	const horizon = 6000 * sim.Second
	crashed, stopped := 0, 0
	for seed := int64(1); seed <= 20; seed++ {
		var log nodeLog
		n, err := Build(crashChurnScenario(seed), 0, Options{Trace: &log})
		if err != nil {
			t.Fatal(err)
		}
		n.Run(horizon)
		victim := make([]bool, n.Cfg.NumNodes)
		churned := make([]bool, n.Cfg.NumNodes)
		for _, e := range log.evs {
			switch {
			case e.What == "fault down":
				victim[e.Node] = true
			case strings.HasPrefix(e.What, "churn ") && e.At > crashAt+crashFor:
				churned[e.Node] = true
			}
		}
		for i := range victim {
			if victim[i] {
				crashed++
				if !churned[i] {
					stopped++
				}
			}
		}
	}
	if crashed == 0 || stopped > 0 {
		t.Errorf("%d of %d crashed members never churned again after the crash cleared", stopped, crashed)
	}
}

// Replayed from the trace, a node's set of causes is empty exactly when
// the medium has it on the air, at every second of runs that combine a
// crash group, churn and finite batteries: a member held down by a
// crash and churn at once stays off until both clear, each cause's set
// and clear alternate, a battery death is the node's last lifecycle
// event, and ChurnEvents counts the churn departures that took a node
// off the air.
func TestOnAirExactlyWhenNoCauseHolds(t *testing.T) {
	const (
		death = 1 << iota
		crash
		churn
	)
	replay := map[string]struct {
		bit uint8
		set bool
	}{
		"battery death": {death, true},
		"fault down":    {crash, true}, "fault up": {crash, false},
		"churn down": {churn, true}, "churn up": {churn, false},
	}
	var both, deaths int
	for seed := int64(1); seed <= 6; seed++ {
		sc := crashChurnScenario(seed)
		if seed%2 == 0 {
			sc.Energy = radio.EnergyConfig{Capacity: 0.2, TxPerFrame: 1e-4, RxPerFrame: 1e-4, TxPerByte: 1e-6, RxPerByte: 1e-6}
		}
		var log nodeLog
		n, err := Build(sc, 0, Options{Trace: &log})
		if err != nil {
			t.Fatal(err)
		}
		held := make([]uint8, sc.NumNodes)
		var departures uint64
		next := 0
		for s := 0; s < 2400; s++ {
			n.Run(sim.Second)
			for ; next < len(log.evs); next++ {
				e := log.evs[next]
				r, ok := replay[e.What]
				switch {
				case !ok:
					t.Fatalf("seed %d node %d at %v: unknown lifecycle event %q", seed, e.Node, e.At, e.What)
				case held[e.Node]&death != 0:
					t.Errorf("seed %d node %d at %v: %q after its battery death", seed, e.Node, e.At, e.What)
				case (held[e.Node]&r.bit != 0) == r.set:
					t.Errorf("seed %d node %d at %v: %q twice in a row", seed, e.Node, e.At, e.What)
				}
				if e.What == "churn down" && held[e.Node] == 0 {
					departures++
				}
				if e.What == "battery death" {
					deaths++
				}
				held[e.Node] ^= r.bit
			}
			for i, h := range held {
				if n.Medium.Up(i) != (h == 0) {
					t.Fatalf("seed %d node %d at %v: on the air %v with causes %03b", seed, i, n.Sim.Now(), n.Medium.Up(i), h)
				}
				if h&(crash|churn) == crash|churn {
					both++
				}
			}
		}
		if got := n.ChurnEvents(); got != departures {
			t.Errorf("seed %d: ChurnEvents %d, %d churn departures took a node off the air", seed, got, departures)
		}
	}
	if both == 0 || deaths == 0 {
		t.Errorf("%d node-seconds held by a crash and churn at once, %d battery deaths: the runs do not exercise what they check", both, deaths)
	}
}
