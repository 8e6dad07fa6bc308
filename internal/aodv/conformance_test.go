package aodv

import (
	"testing"

	"manetp2p/internal/netif/conformance"
	"manetp2p/internal/radio"
	"manetp2p/internal/route"
)

// TestConformance runs the shared netif.Protocol contract suite. AODV
// signals an abandoned payload once expanding-ring discovery exhausts
// its retries.
func TestConformance(t *testing.T) {
	conformance.Run(t, conformance.Factory{
		Name: "aodv",
		New: func(id int, pl *route.Plane, med *radio.Medium) conformance.Router {
			return NewRouter(id, pl, med, Config{SeenCacheCap: 512})
		},
	})
}
