package dsr

import (
	"testing"

	"manetp2p/internal/netif/conformance"
	"manetp2p/internal/route"
)

// TestConformance runs the shared netif.Protocol contract suite. DSR
// signals an abandoned payload once source-route discovery exhausts its
// retries.
func TestConformance(t *testing.T) {
	conformance.Run(t, conformance.Factory{
		Name: "dsr",
		New: func(id int, pl *route.Plane) conformance.Router {
			cfg := DefaultConfig()
			cfg.Seen.HardCap = 1024
			return NewRouter(id, pl, cfg)
		},
	})
}
