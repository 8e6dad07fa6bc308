package aodv

import (
	"testing"

	"manetp2p/internal/netif/conformance"
	"manetp2p/internal/route"
)

// TestConformance runs the shared netif.Protocol contract suite. AODV
// signals an abandoned payload once expanding-ring discovery exhausts
// its retries.
func TestConformance(t *testing.T) {
	conformance.Run(t, conformance.Factory{
		Name: "aodv",
		New: func(id int, pl *route.Plane) conformance.Router {
			cfg := DefaultConfig()
			cfg.Seen.HardCap = 1024
			return NewRouter(id, pl, cfg)
		},
	})
}
