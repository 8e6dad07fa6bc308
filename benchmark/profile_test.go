package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"testing"
)

// pbWriter encodes the few protobuf shapes a pprof profile uses.
type pbWriter struct{ bytes.Buffer }

func (w *pbWriter) varint(v uint64) {
	for ; v >= 0x80; v >>= 7 {
		w.WriteByte(byte(v) | 0x80)
	}
	w.WriteByte(byte(v))
}

func (w *pbWriter) uint(field int, v uint64) {
	w.varint(uint64(field)<<3 | 0)
	w.varint(v)
}

func (w *pbWriter) bytes(field int, data []byte) {
	w.varint(uint64(field)<<3 | 2)
	w.varint(uint64(len(data)))
	w.Write(data)
}

func (w *pbWriter) packed(field int, vs ...uint64) {
	var p pbWriter
	for _, v := range vs {
		p.varint(v)
	}
	w.bytes(field, p.Bytes())
}

// synthetic builds a CPU profile from stacks of function names (leaf
// first). A name of the form "a|b" is one location holding a inlined
// into b. Every sample has count 2 and the given CPU milliseconds.
func synthetic(packed bool, stacks map[string]struct {
	frames []string
	ms     uint64
}) []byte {
	var prof pbWriter
	strs := []string{""}
	intern := func(s string) uint64 {
		for i, have := range strs {
			if have == s {
				return uint64(i)
			}
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	for _, vt := range [][2]string{{"samples", "count"}, {"cpu", "nanoseconds"}} {
		var m pbWriter
		m.uint(1, intern(vt[0]))
		m.uint(2, intern(vt[1]))
		prof.bytes(1, m.Bytes())
	}
	functions := map[string]uint64{}
	function := func(name string) uint64 {
		if id, ok := functions[name]; ok {
			return id
		}
		id := uint64(len(functions) + 1)
		functions[name] = id
		var m pbWriter
		m.uint(1, id)
		m.uint(2, intern(name))
		prof.bytes(5, m.Bytes())
		return id
	}
	nextLoc := uint64(1)
	for _, st := range stacks {
		var locs []uint64
		for _, frame := range st.frames {
			var m pbWriter
			m.uint(1, nextLoc)
			for _, name := range bytes.Split([]byte(frame), []byte("|")) {
				var line pbWriter
				line.uint(1, function(string(name)))
				m.bytes(4, line.Bytes())
			}
			prof.bytes(4, m.Bytes())
			locs = append(locs, nextLoc)
			nextLoc++
		}
		var s pbWriter
		if packed {
			s.packed(1, locs...)
			s.packed(2, 2, st.ms*1e6)
		} else {
			for _, l := range locs {
				s.uint(1, l)
			}
			s.uint(2, 2)
			s.uint(2, st.ms*1e6)
		}
		prof.bytes(2, s.Bytes())
	}
	for _, s := range strs {
		prof.bytes(6, []byte(s))
	}
	prof.uint(12, 10_000_000) // period, a field the fold does not need
	return prof.Bytes()
}

func TestFoldByLayer(t *testing.T) {
	type stack = struct {
		frames []string
		ms     uint64
	}
	run := []string{"manetp2p/internal/sim.(*Sim).Run", "manetp2p.runReplication", "manetp2p.(*Pool).runReps.func1"}
	under := func(frames ...string) []string { return append(frames, run...) }
	stacks := map[string]stack{
		// A leaf in a layer is that layer's.
		"leaf": {under("manetp2p/internal/route.(*DupCache).find", "manetp2p/internal/aodv.(*Router).handleRREQ"), 30},
		// A runtime leaf is charged to the nearest layer calling it.
		"duffcopy": {under("runtime.duffcopy", "manetp2p/internal/radio.(*Medium).Send", "manetp2p/internal/aodv.(*Router).transmit"), 50},
		"mapiter":  {under("runtime.mapiternext", "runtime.mapiterinit", "manetp2p/internal/dsdv.(*Router).handleUpdate"), 20},
		// So is the standard library, generic instantiations included.
		"sort": {under("slices.insertionSortCmpFunc[go.shape.struct { manetp2p/internal/aodv.dst int }]", "manetp2p/internal/aodv.(*Router).sendRERR"), 10},
		// An inlined leaf counts as the leaf.
		"inlined": {under("manetp2p/internal/geom.Point.Dist2|manetp2p/internal/radio.(*Medium).InRange"), 40},
		// A repository package that is no layer of its own passes the charge up.
		"stats": {[]string{"manetp2p/internal/stats.Summarize", "manetp2p.aggregate", "manetp2p.(*Pool).Run", "main.execute", "main.main"}, 5},
		"netif": {under("manetp2p/internal/netif.(*Stats).Add", "manetp2p/internal/manet.(*Network).RoutingStats"), 5},
		// No repository frame: the collector and the scheduler.
		"gcworker": {[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, 70},
		// The benchmark's own work between replications.
		"explicitgc": {[]string{"runtime.futex", "runtime.GC", "main.execute", "main.(*run).passA", "main.main"}, 90},
		"digest":     {[]string{"encoding/json.Marshal", "main.execute", "main.main"}, 10},
	}
	want := map[string]float64{
		"route": 0.030, "radio": 0.050, "dsdv": 0.020, "aodv": 0.010, "geom": 0.040,
		"root": 0.005, "manet": 0.005, layerGC: 0.070, layerBenchmark: 0.100,
	}
	for _, packed := range []bool{true, false} {
		data := synthetic(packed, stacks)
		if packed {
			// runtime/pprof writes gzip; the raw form must parse too.
			var z bytes.Buffer
			zw := gzip.NewWriter(&z)
			zw.Write(data)
			zw.Close()
			data = z.Bytes()
		}
		prof, err := parseProfile(data)
		if err != nil {
			t.Fatal(err)
		}
		cpu, samples := foldByLayer(prof)
		if samples != 2*len(stacks) {
			t.Errorf("packed=%v: %d samples, want %d", packed, samples, 2*len(stacks))
		}
		if len(cpu) != len(want) {
			t.Errorf("packed=%v: buckets %v, want %v", packed, cpu, want)
		}
		for bucket, s := range want {
			if math.Abs(cpu[bucket]-s) > 1e-9 {
				t.Errorf("packed=%v: %s = %v s, want %v", packed, bucket, cpu[bucket], s)
			}
		}
	}
}

func TestParseProfileTruncated(t *testing.T) {
	data := synthetic(true, map[string]struct {
		frames []string
		ms     uint64
	}{"one": {[]string{"manetp2p/internal/sim.(*Sim).Run"}, 10}})
	for cut := 1; cut < len(data); cut += 7 {
		// Cutting inside a field must be an error, never a panic; a cut
		// on a field boundary is a shorter valid profile.
		if _, err := parseProfile(data[:cut]); err != nil && err != errTruncated {
			t.Errorf("cut at %d: %v", cut, err)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"manetp2p.Run":                           "root",
		"manetp2p.init.func12":                   "root",
		"manetp2p/internal/radio.(*Medium).Send": "radio",
		"manetp2p/internal/telemetry.(*Registry[go.shape.*uint8,go.shape.struct {}]).Collect": "telemetry",
		"manetp2p/internal/netif/conformance.Run":                                             "",
		"manetp2p/internal/stats.Summarize":                                                   "",
		"manetp2p/benchmark.main":                                                             "",
		"manetp2pextra.F":                                                                     "",
		"runtime.duffcopy":                                                                    "",
		"main.execute":                                                                        "",
		"slices.SortFunc[go.shape.[]manetp2p/internal/aodv.x]":                                "",
	} {
		got, ok := layerOf(fn)
		if !ok {
			got = ""
		}
		if got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
