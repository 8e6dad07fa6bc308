package viz

import (
	"bytes"
	"strings"
	"testing"

	"manetp2p/internal/manet"
	"manetp2p/internal/p2p"
	"manetp2p/internal/sim"
)

func buildNet(t *testing.T, alg p2p.Algorithm) *manet.Network {
	t.Helper()
	cfg := manet.DefaultScenario(20, alg)
	cfg.Seed = 5
	if alg == p2p.Hybrid {
		cfg.Quals = manet.DeviceClasses()
	}
	n, err := manet.Build(cfg, 0, manet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	n.Run(5 * sim.Minute)
	return n
}

func TestWriteSVGWellFormed(t *testing.T) {
	n := buildNet(t, p2p.Regular)
	var buf bytes.Buffer
	if err := WriteSVG(&buf, n, Options{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "<svg") || !strings.HasSuffix(strings.TrimSpace(out), "</svg>") {
		t.Error("output is not a complete SVG document")
	}
	// One circle per up node.
	up := 0
	for i := 0; i < n.Cfg.NumNodes; i++ {
		if n.Medium.Up(i) {
			up++
		}
	}
	if got := strings.Count(out, "<circle"); got != up {
		t.Errorf("circles = %d, want %d (one per up node)", got, up)
	}
}

func TestWriteSVGOverlayLinesMatchConnections(t *testing.T) {
	n := buildNet(t, p2p.Regular)
	var buf bytes.Buffer
	if err := WriteSVG(&buf, n, Options{}); err != nil {
		t.Fatal(err)
	}
	// Count drawn overlay lines (each link once, from the lower id).
	want := 0
	for i, sv := range n.Servents {
		if sv == nil || !sv.Joined() {
			continue
		}
		for _, peer := range sv.Peers() {
			if peer > i {
				want++
			}
		}
	}
	if got := strings.Count(buf.String(), `stroke="#2a6fdb"`) + strings.Count(buf.String(), `stroke="#d33682"`); got != want {
		t.Errorf("overlay lines = %d, want %d", got, want)
	}
}

func TestWriteSVGOptions(t *testing.T) {
	n := buildNet(t, p2p.Hybrid)
	var plain, full bytes.Buffer
	if err := WriteSVG(&plain, n, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := WriteSVG(&full, n, Options{ShowRadio: true, ShowLabels: true, Scale: 4}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(full.String(), "<text") {
		t.Error("labels requested but no text elements emitted")
	}
	if strings.Contains(plain.String(), "<text") {
		t.Error("labels emitted without being requested")
	}
	if strings.Count(full.String(), `stroke="#ddd"`) == 0 {
		t.Error("radio adjacency requested but not drawn")
	}
	// Hybrid roles must color at least one master.
	if !strings.Contains(full.String(), "#cb4b16") {
		t.Error("no master-colored node in a hybrid snapshot")
	}
}
