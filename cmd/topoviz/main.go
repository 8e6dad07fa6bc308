// Command topoviz runs a scenario for a while and writes an SVG snapshot
// of the network: node positions, radio adjacency (optional), overlay
// connections (random links highlighted) and hybrid roles.
//
// Usage:
//
//	topoviz -nodes 50 -alg random -at 1800 > topo.svg
//	topoviz -alg hybrid -labels -radio > topo.svg
//
// The scenario is cmd/internal/scenarioflag's, with device classes by
// default; a snapshot is one replication, so -reps is refused.
package main

import (
	"flag"
	"fmt"
	"os"

	"manetp2p"
	"manetp2p/cmd/internal/scenarioflag"
	"manetp2p/internal/viz"
)

func main() {
	var (
		at     = flag.Float64("at", 1800, "snapshot time, simulated seconds")
		radio  = flag.Bool("radio", false, "draw radio adjacency")
		labels = flag.Bool("labels", false, "draw node ids")
		scale  = flag.Float64("scale", 6, "pixels per metre")
	)
	sf := scenarioFlags(flag.CommandLine)
	flag.Parse()

	sc, err := sf.Scenario()
	exitOn(err, 2)
	s, err := manetp2p.NewSimulation(sc)
	exitOn(err, 1)
	s.Step(manetp2p.Seconds(*at))
	exitOn(viz.WriteSVG(os.Stdout, s.Net, viz.Options{Scale: *scale, ShowRadio: *radio, ShowLabels: *labels}), 1)
}

// scenarioFlags registers topoviz's scenario flags. Only Hybrid reads
// qualifiers; classes draw as many numbers as the default.
func scenarioFlags(fs *flag.FlagSet) *scenarioflag.Flags {
	return scenarioflag.Register(fs, func(sc *manetp2p.Scenario) { sc.Quals = manetp2p.DeviceClasses() }, "reps")
}

// exitOn prints err and exits with code unless err is nil.
func exitOn(err error, code int) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(code)
	}
}
