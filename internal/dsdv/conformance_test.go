package dsdv

import (
	"testing"

	"manetp2p/internal/netif/conformance"
	"manetp2p/internal/route"
	"manetp2p/internal/sim"
)

// TestConformance runs the shared netif.Protocol contract suite. DSDV
// is proactive: the suite warms up past a few advertisement rounds
// before sending, and an unreachable destination is signalled once the
// parked payload's settling time expires.
func TestConformance(t *testing.T) {
	conformance.Run(t, conformance.Factory{
		Name: "dsdv",
		New: func(id int, pl *route.Plane) conformance.Router {
			cfg := DefaultConfig()
			cfg.Seen.HardCap = 1024
			return NewRouter(id, pl, cfg)
		},
		WarmUp: 40 * sim.Second,
	})
}
