package flood

import (
	"testing"

	"manetp2p/internal/netif/conformance"
	"manetp2p/internal/route"
)

// TestConformance runs the shared netif.Protocol contract suite. Flood
// keeps no routing state and gets no route feedback: a send to an
// unreachable destination is silence.
func TestConformance(t *testing.T) {
	conformance.Run(t, conformance.Factory{
		Name: "flood",
		New: func(id int, pl *route.Plane) conformance.Router {
			cfg := DefaultConfig()
			cfg.Seen.HardCap = 1024
			return NewRouter(id, pl, cfg)
		},
		NoRouteFeedback: true,
	})
}
