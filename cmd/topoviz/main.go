// Command topoviz runs a scenario for a while and writes an SVG snapshot
// of the network: node positions, radio adjacency (optional), overlay
// connections (random links highlighted) and hybrid roles.
//
// Usage:
//
//	topoviz -nodes 50 -alg random -at 1800 > topo.svg
//	topoviz -alg hybrid -labels -radio > topo.svg
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"manetp2p"
	"manetp2p/internal/viz"
)

func main() {
	var algs []string
	for _, alg := range manetp2p.Algorithms() {
		algs = append(algs, strings.ToLower(alg.String()))
	}
	var (
		nodes   = flag.Int("nodes", 50, "number of ad-hoc nodes")
		algName = flag.String("alg", "regular", "algorithm: "+strings.Join(algs, "|"))
		at      = flag.Float64("at", 1800, "snapshot time, simulated seconds")
		seed    = flag.Int64("seed", 1, "random seed")
		radio   = flag.Bool("radio", false, "draw radio adjacency")
		labels  = flag.Bool("labels", false, "draw node ids")
		scale   = flag.Float64("scale", 6, "pixels per metre")
	)
	flag.Parse()

	alg, err := manetp2p.ParseAlgorithm(*algName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	sc := manetp2p.DefaultScenario(*nodes, alg)
	sc.Seed = *seed
	// Only Hybrid reads qualifiers; classes draw as many numbers as the default.
	sc.Quals = manetp2p.DeviceClasses()
	s, err := manetp2p.NewSimulation(sc)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	s.Step(manetp2p.Seconds(*at))
	if err := viz.WriteSVG(os.Stdout, s.Net, viz.Options{
		Scale: *scale, ShowRadio: *radio, ShowLabels: *labels,
	}); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
