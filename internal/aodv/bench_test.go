package aodv

import (
	"testing"

	"manetp2p/internal/geom"
	"manetp2p/internal/netif"
	"manetp2p/internal/radio"
	"manetp2p/internal/route"
	"manetp2p/internal/sim"
)

// BenchmarkAODVDiscovery measures one cold route discovery over a 10-hop
// chain.
func BenchmarkAODVDiscovery(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := sim.New(int64(i))
		med, err := radio.NewMedium(s, radio.Config{
			Arena: geom.Rect{W: 200, H: 50}, Range: 10, NumNodes: 11,
			Latency: 2 * sim.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		routers := make([]*Router, 11)
		pl := route.NewPlane(s, 11)
		delivered := false
		for n := 0; n < 11; n++ {
			routers[n] = NewRouter(n, pl, med, Config{})
			med.Join(n, geom.Point{X: 5 + 8*float64(n), Y: 25}, routers[n].HandleFrame)
		}
		routers[10].OnUnicast(func(Delivery) { delivered = true })
		b.StartTimer()
		routers[0].Send(10, 64, netif.TestMsg(1))
		s.Run(30 * sim.Second)
		if !delivered {
			b.Fatal("discovery failed")
		}
	}
}
