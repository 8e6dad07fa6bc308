package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
)

// This file decodes a runtime/pprof CPU profile with the standard
// library only (gzip + the handful of protobuf wire rules the format
// uses) and folds its samples by repository layer, so the benchmark
// needs no `go tool pprof` at run time.

// pbuf is a cursor over protobuf wire data.
type pbuf struct{ b []byte }

var errTruncated = errors.New("profile: truncated protobuf")

func (p *pbuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errTruncated
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("profile: varint overflow")
}

// field reads one field: its number, and either its varint value or its
// length-delimited bytes. pprof's messages use no other wire type.
func (p *pbuf) field() (num int, v uint64, data []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	num = int(key >> 3)
	switch key & 7 {
	case 0:
		v, err = p.varint()
		return num, v, nil, err
	case 2:
		n, err := p.varint()
		if err != nil {
			return 0, 0, nil, err
		}
		if n > uint64(len(p.b)) {
			return 0, 0, nil, errTruncated
		}
		data, p.b = p.b[:n], p.b[n:]
		return num, 0, data, nil
	default:
		return 0, 0, nil, fmt.Errorf("profile: unsupported wire type %d", key&7)
	}
}

// repeated appends a repeated integer field given either encoding:
// packed (data) or one value per field (v).
func repeated(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	p := pbuf{data}
	for len(p.b) > 0 {
		x, err := p.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

// cpuProfile is the subset of pprof's Profile message the fold needs.
type cpuProfile struct {
	sampleTypes [][2]uint64         // (type, unit) string indexes
	samples     []cpuSample         //
	locations   map[uint64][]uint64 // location id -> function ids, innermost inlined frame first
	functions   map[uint64]uint64   // function id -> name string index
	strings     []string
}

type cpuSample struct {
	locations []uint64 // leaf first
	values    []uint64
}

// parseProfile decodes a gzip-compressed (or raw) pprof profile.
func parseProfile(data []byte) (*cpuProfile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	prof := &cpuProfile{locations: map[uint64][]uint64{}, functions: map[uint64]uint64{}}
	p := pbuf{data}
	for len(p.b) > 0 {
		num, _, msg, err := p.field()
		if err != nil {
			return nil, err
		}
		switch num {
		case 1: // sample_type: ValueType{type=1, unit=2}
			var vt [2]uint64
			if err := eachField(msg, func(n int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					vt[n-1] = v
				}
				return nil
			}); err != nil {
				return nil, err
			}
			prof.sampleTypes = append(prof.sampleTypes, vt)
		case 2: // sample: Sample{location_id=1, value=2}
			var s cpuSample
			if err := eachField(msg, func(n int, v uint64, data []byte) (err error) {
				switch n {
				case 1:
					s.locations, err = repeated(s.locations, v, data)
				case 2:
					s.values, err = repeated(s.values, v, data)
				}
				return err
			}); err != nil {
				return nil, err
			}
			prof.samples = append(prof.samples, s)
		case 4: // location: Location{id=1, line=4: Line{function_id=1}}
			var id uint64
			var fns []uint64
			if err := eachField(msg, func(n int, v uint64, data []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return eachField(data, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return nil, err
			}
			prof.locations[id] = fns
		case 5: // function: Function{id=1, name=2}
			var id, name uint64
			if err := eachField(msg, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return nil, err
			}
			prof.functions[id] = name
		case 6: // string_table
			prof.strings = append(prof.strings, string(msg))
		}
	}
	return prof, nil
}

// eachField walks the fields of one embedded message.
func eachField(msg []byte, fn func(num int, v uint64, data []byte) error) error {
	p := pbuf{msg}
	for len(p.b) > 0 {
		num, v, data, err := p.field()
		if err != nil {
			return err
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

func (p *cpuProfile) str(i uint64) string {
	if i < uint64(len(p.strings)) {
		return p.strings[i]
	}
	return ""
}

// stack returns a sample's function names, leaf first, with inlined
// frames expanded.
func (p *cpuProfile) stack(s cpuSample, dst []string) []string {
	for _, loc := range s.locations {
		for _, fn := range p.locations[loc] {
			dst = append(dst, p.str(p.functions[fn]))
		}
	}
	return dst
}

// layers are the repository packages a CPU sample can be charged to;
// "root" is package manetp2p itself.
var layers = []string{
	"sim", "geom", "mobility", "radio", "route", "aodv", "dsr", "dsdv", "flood",
	"p2p", "manet", "graphs", "telemetry", "workload", "fault", "invariant", "root",
}

// Buckets beside the layers: samples with no repository frame at all
// (the collector's background workers, the scheduler) and samples spent
// in the benchmark's own code between replications.
const (
	layerGC        = "runtime.gc"
	layerBenchmark = "benchmark"
)

// layerOf maps a Go symbol to its layer, if it belongs to one.
func layerOf(fn string) (string, bool) {
	const module = "manetp2p"
	rest, ok := strings.CutPrefix(fn, module)
	if !ok {
		return "", false
	}
	if strings.HasPrefix(rest, ".") {
		return "root", true
	}
	pkg, ok := strings.CutPrefix(rest, "/internal/")
	if !ok {
		return "", false
	}
	if i := strings.IndexAny(pkg, "./"); i >= 0 {
		pkg = pkg[:i]
	}
	return pkg, slices.Contains(layers, pkg)
}

// foldByLayer charges every sample's CPU time to one bucket: the layer
// of its leaf frame, or — when the leaf is the runtime, the standard
// library or a repository package that is not a layer of its own — the
// nearest layer frame calling it. So duffcopy under radio.(*Medium).Send
// is radio's, and map iteration under dsdv.handleUpdate is dsdv's.
// It returns CPU seconds per bucket and the number of samples.
func foldByLayer(p *cpuProfile) (map[string]float64, int) {
	// Go's CPU profiles carry (samples/count, cpu/nanoseconds); equal
	// stacks are merged into one record, so the count is a value too.
	count, nanos := -1, -1
	for i, vt := range p.sampleTypes {
		switch p.str(vt[0]) + "/" + p.str(vt[1]) {
		case "samples/count":
			count = i
		case "cpu/nanoseconds":
			nanos = i
		}
	}
	cpu := map[string]float64{}
	samples := 0
	var stack []string
	for _, s := range p.samples {
		if count < 0 || nanos < 0 || max(count, nanos) >= len(s.values) {
			continue
		}
		stack = p.stack(s, stack[:0])
		bucket := layerGC
		for _, fn := range stack {
			if l, ok := layerOf(fn); ok {
				bucket = l
				break
			}
			if strings.HasPrefix(fn, "main.") {
				bucket = layerBenchmark
			}
		}
		cpu[bucket] += float64(s.values[nanos]) / 1e9
		samples += int(s.values[count])
	}
	return cpu, samples
}
