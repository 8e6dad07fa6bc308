package flood

import (
	"testing"

	"manetp2p/internal/netif/conformance"
	"manetp2p/internal/radio"
	"manetp2p/internal/route"
)

// TestConformance runs the shared netif.Protocol contract suite. Flood
// keeps no routing state, so the only send it can prove undeliverable —
// and signal — is one attempted while the sender itself is down.
func TestConformance(t *testing.T) {
	conformance.Run(t, conformance.Factory{
		Name: "flood",
		New: func(id int, pl *route.Plane, med *radio.Medium) conformance.Router {
			return NewRouter(id, pl, med, Config{SeenCacheCap: 512})
		},
		SenderDownFails: true,
	})
}
