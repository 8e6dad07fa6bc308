// Package prof wires the standard Go profilers (pprof CPU and heap,
// runtime/trace execution traces) behind a common set of flags so every
// CLI in this repository exposes the same profiling surface.
package prof

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"runtime"
	"runtime/pprof"
	"runtime/trace"

	"manetp2p/cmd/internal/outfile"
)

// Flags holds the output paths requested on the command line; empty
// paths mean the corresponding profiler stays off.
type Flags struct {
	cpu  string
	mem  string
	exec string
}

// Register installs -cpuprofile, -memprofile and -exectrace on fs.
// The execution-trace flag is deliberately NOT named -trace: cmd/p2psim
// already uses that name for its JSON simulation event trace.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.cpu, "cpuprofile", "", "write a pprof CPU profile to this file")
	fs.StringVar(&f.mem, "memprofile", "", "write a pprof heap profile to this file on exit")
	fs.StringVar(&f.exec, "exectrace", "", "write a runtime/trace execution trace to this file")
	return f
}

// Start begins the requested profilers. The returned stop function
// flushes and closes them; call it (or defer it) before the process
// exits. Each file is an outfile.File, emptied at its first write, and
// every profile is written by stop: the runtime holds the CPU profile
// until then, and the execution trace is held here, so a run that exits
// without stop leaves all three files as they were.
func (f *Flags) Start() (stop func() error, err error) {
	var stops []func() error

	if f.cpu != "" {
		w, err := outfile.Create(f.cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(w); err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		stops = append(stops, func() error {
			pprof.StopCPUProfile()
			return w.Close()
		})
	}
	if f.exec != "" {
		w, err := outfile.Create(f.exec)
		if err != nil {
			return nil, err
		}
		buf := new(bytes.Buffer) // about 13 kB per second of a 150-node run
		if err := trace.Start(buf); err != nil {
			return nil, fmt.Errorf("exectrace: %w", err)
		}
		stops = append(stops, func() error {
			trace.Stop()
			_, err := buf.WriteTo(w)
			return errors.Join(err, w.Close())
		})
	}
	if f.mem != "" {
		w, err := outfile.Create(f.mem)
		if err != nil {
			return nil, err
		}
		stops = append(stops, func() error {
			runtime.GC() // settle the heap so the profile shows live data
			return errors.Join(pprof.WriteHeapProfile(w), w.Close())
		})
	}

	return func() error {
		var first error
		for _, s := range stops {
			if err := s(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}, nil
}
