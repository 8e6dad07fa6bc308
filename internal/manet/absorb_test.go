package manet

import (
	"fmt"
	"reflect"
	"testing"

	"manetp2p/internal/netif"
	"manetp2p/internal/p2p"
	"manetp2p/internal/radio"
	"manetp2p/internal/sim"
)

// readout is everything the rest of a replication can read of the
// medium, the routers and the kernel. Medium counters drop Absorbed,
// which the reference run never counts; the routers fold it into
// DupHits.
type readout struct {
	Now      sim.Time
	Seq      uint64
	Medium   []radio.Stats
	Routing  []netif.Stats
	InFlight []uint64
}

func readOut(n *Network) readout {
	r := readout{Now: n.Sim.Now(), Seq: n.Sim.Seq(), Routing: n.RoutingStats(), InFlight: n.Medium.InFlightTo(nil)}
	for i := 0; i < n.Medium.NumNodes(); i++ {
		st := n.Medium.Stats(i)
		st.Absorbed = 0
		r.Medium = append(r.Medium, st)
	}
	return r
}

// absorbed sums the receptions the medium settled off the wheel.
func absorbed(n *Network) uint64 {
	var sum uint64
	for i := 0; i < n.Medium.NumNodes(); i++ {
		sum += n.Medium.Stats(i).Absorbed
	}
	return sum
}

// The medium's settled receptions are invisible: a replication built
// twice, once with the absorber removed, reads the same at every kernel
// entry of the absorbing run — after the reference has fired everything
// up to the same key — under each setting that moves a hazard into the
// flight time of a frame.
func TestAbsorptionLeavesReplicationAlone(t *testing.T) {
	settings := []struct {
		name  string
		set   func(*Scenario, *Options)
		holds bool
	}{
		// Four-mark caches (hard cap 8) evict marks whose copies are
		// still in flight.
		{"evictions", func(_ *Scenario, o *Options) { o.AODV.SeenCacheCap = 4 }, true},
		// Marks expire before any copy lands: nothing may be held.
		{"expiry", func(_ *Scenario, o *Options) { o.AODV.SeenCacheTimeout = 1500 * sim.Microsecond }, false},
		{"churn", func(sc *Scenario, _ *Options) {
			sc.Churn = ChurnConfig{MeanUptime: 20 * sim.Second, MeanDowntime: 5 * sim.Second}
		}, true},
		// Receptions cost energy: the medium installs no absorber.
		{"energy", func(sc *Scenario, _ *Options) { sc.Energy = radio.DefaultEnergy(0.5) }, false},
		// Transmissions alone drain batteries: nodes die with copies held.
		{"tx-deaths", func(sc *Scenario, _ *Options) { sc.Energy = radio.EnergyConfig{Capacity: 0.05, TxPerFrame: 1e-4} }, true},
	}
	for _, set := range settings {
		t.Run(set.name, func(t *testing.T) {
			sc := DefaultScenario(40, p2p.Regular)
			sc.AreaSide = 40
			sc.Seed = 3
			var opt Options
			set.set(&sc, &opt)
			abs, err := Build(sc, 0, opt)
			if err != nil {
				t.Fatal(err)
			}
			ref, _ := Build(sc, 0, opt)
			ref.Medium.SetAbsorber(nil)

			abs.Run(10 * sim.Second)
			ref.Run(10 * sim.Second)
			compared := 0
			check := func(when string) {
				t.Helper()
				if a, r := readOut(abs), readOut(ref); !reflect.DeepEqual(a, r) {
					t.Fatalf("%s: absorbing run reads\n%+v\nreference reads\n%+v", when, a, r)
				}
				compared++
			}
			check("after Run")
			for step := 0; abs.Sim.Now() < 300*sim.Second && compared < 1500; step++ {
				at, seq, _ := abs.Sim.Peek()
				abs.Sim.Step()
				for {
					rat, rseq, ok := ref.Sim.Peek()
					if !ok || rat > at || (rat == at && rseq > seq) {
						break
					}
					ref.Sim.Step()
				}
				if step%16 == 0 {
					check(fmt.Sprintf("step %d at %v", step, at))
				}
			}
			abs.Run(5 * sim.Second)
			ref.Run(5 * sim.Second)
			check("at the horizon")
			if compared < 500 {
				t.Errorf("compared at %d kernel positions, want at least 500", compared)
			}
			if held := absorbed(abs); (held > 0) != set.holds {
				t.Errorf("%d receptions absorbed, want any: %v", held, set.holds)
			}
			t.Logf("%d positions compared, %d receptions absorbed, %d kernel entries against %d",
				compared, absorbed(abs), abs.Sim.Fired(), ref.Sim.Fired())
		})
	}
}
