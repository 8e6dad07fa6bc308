// Package viz renders simulation snapshots as SVG: node positions,
// radio adjacency, overlay connections and hybrid roles. Used by
// cmd/topoviz to eyeball what the metrics aggregate away.
package viz

import (
	"fmt"
	"io"
	"strings"

	"manetp2p/internal/manet"
	"manetp2p/internal/p2p"
)

// Options tunes the rendering.
type Options struct {
	Scale      float64 // pixels per metre (default 6)
	ShowRadio  bool    // draw the radio-adjacency graph
	ShowLabels bool    // draw node ids
}

// WriteSVG renders the network's current state.
func WriteSVG(w io.Writer, n *manet.Network, opt Options) error {
	if opt.Scale <= 0 {
		opt.Scale = 6
	}
	var b strings.Builder
	width := n.Cfg.AreaSide * opt.Scale
	height := n.Cfg.AreaSide * opt.Scale
	const margin = 20.0
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="%.0f %.0f %.0f %.0f">`+"\n",
		width+2*margin, height+2*margin, -margin, -margin, width+2*margin, height+2*margin)
	fmt.Fprintf(&b, `<rect x="0" y="0" width="%.0f" height="%.0f" fill="#fcfcfc" stroke="#888"/>`+"\n", width, height)

	px := func(x float64) float64 { return x * opt.Scale }

	// Radio adjacency (faint).
	if opt.ShowRadio {
		var nbs []int
		for i := 0; i < n.Cfg.NumNodes; i++ {
			if !n.Medium.Up(i) {
				continue
			}
			nbs = n.Medium.Neighbors(nbs[:0], i)
			pi := n.Medium.Pos(i)
			for _, j := range nbs {
				if j < i {
					continue // draw each link once
				}
				pj := n.Medium.Pos(j)
				fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#ddd" stroke-width="1"/>`+"\n",
					px(pi.X), px(pi.Y), px(pj.X), px(pj.Y))
			}
		}
	}

	// Overlay links.
	for i, sv := range n.Servents {
		if sv == nil || !sv.Joined() {
			continue
		}
		pi := n.Medium.Pos(i)
		for _, peer := range sv.Peers() {
			if peer < i {
				continue
			}
			pj := n.Medium.Pos(peer)
			color, width := "#2a6fdb", 1.6
			if sv.ConnIsRandom(peer) {
				color = "#d33682" // the Random algorithm's long link
			}
			fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="%s" stroke-width="%.1f"/>`+"\n",
				px(pi.X), px(pi.Y), px(pj.X), px(pj.Y), color, width)
		}
	}

	// Nodes.
	for i := 0; i < n.Cfg.NumNodes; i++ {
		if !n.Medium.Up(i) {
			continue
		}
		p := n.Medium.Pos(i)
		fill, r := "#bbb", 3.0 // plain ad-hoc relay
		if sv := n.Servents[i]; sv != nil && sv.Joined() {
			switch sv.State() { // only Hybrid servents leave StateInitial
			case p2p.StateMaster:
				fill, r = "#cb4b16", 5
			case p2p.StateSlave:
				fill, r = "#859900", 3.5
			default:
				fill, r = "#268bd2", 4
			}
		}
		fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="%.1f" fill="%s" stroke="#333" stroke-width="0.5"/>`+"\n",
			px(p.X), px(p.Y), r, fill)
		if opt.ShowLabels {
			fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-size="8" fill="#333">%d</text>`+"\n",
				px(p.X)+5, px(p.Y)-3, i)
		}
	}
	b.WriteString("</svg>\n")
	_, err := io.WriteString(w, b.String())
	return err
}
