package telemetry

import (
	"encoding/binary"
	"math"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"manetp2p/internal/sim"
)

// A request outcome is stored in 16 bytes: three of them per 48-byte
// Request.
func TestOutcomeIs16Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Outcome{}); got != 16 {
		t.Fatalf("Outcome is %d bytes, want 16", got)
	}
}

// boundRequest is a request with every field at the bound its record
// field must hold.
var boundRequest = Request{Node: 1<<16 - 1, File: 1<<16 - 1, Answers: math.MaxUint32,
	MinP2P: math.MaxUint32, MinAdhoc: math.MaxUint32, Found: true}

// modelRequest is the i-th request of the store tests: small values,
// with every field at its bound every 97th request.
func modelRequest(i int) Request {
	if i%97 == 96 {
		return boundRequest
	}
	r := Request{Node: i % 50, File: i % 20, Answers: i % 3, MinP2P: i % 5, MinAdhoc: i % 11}
	r.Found = r.Answers > 0
	return r
}

// The Collector's logs read back what a slice would hold: requests with
// every field at its bound, across chunk boundaries; lifetimes and
// health samples copied out at exactly their number; the health samples
// walked from any index.
func TestStoreMatchesSliceModel(t *testing.T) {
	for _, n := range []int{0, 1, StoreChunk - 1, StoreChunk, StoreChunk + 1, 3*StoreChunk + 7} {
		c := NewCollector(1)
		var requests []Request
		var lifetimes []float64
		var health []HealthSample
		for i := 0; i < n; i++ {
			r := modelRequest(i)
			c.Record(r)
			requests = append(requests, r)
			lt := float64(i) / 4
			c.RecordLifetime(lt)
			lifetimes = append(lifetimes, lt)
			h := HealthSample{At: sim.Time(i) * sim.Second, LargestComp: float64(i) / float64(n), Links: i}
			h.Received[Query] = uint64(i) << 40
			c.RecordHealth(h)
			health = append(health, h)
		}
		if got := c.Requests(); len(got) != n || n > 0 && !reflect.DeepEqual(got, requests) {
			t.Fatalf("n=%d: Requests() differs from the slice model", n)
		}
		if out := c.Outcomes(); out.N != n || out.Check() != nil {
			t.Fatalf("n=%d: request log holds %d records, check %v", n, out.N, out.Check())
		}
		if got := c.Lifetimes(); !reflect.DeepEqual(got, lifetimes) || cap(got) != n {
			t.Fatalf("n=%d: Lifetimes() = %d values (cap %d), want the model's %d at exactly that capacity", n, len(got), cap(got), n)
		}
		if got := c.Health(); !reflect.DeepEqual(got, health) || cap(got) != n {
			t.Fatalf("n=%d: Health() differs from the slice model", n)
		}
		for _, from := range []int{0, 1, StoreChunk - 1, StoreChunk, n - 1, n, n + 1} {
			var walked []HealthSample
			c.EachHealth(from, func(i int, h *HealthSample) {
				if i != from+len(walked) {
					t.Fatalf("n=%d from=%d: index %d after %d samples", n, from, i, len(walked))
				}
				walked = append(walked, *h)
			})
			if want := health[min(max(from, 0), n):]; len(walked) != len(want) || len(want) > 0 && !reflect.DeepEqual(walked, want) {
				t.Fatalf("n=%d from=%d: walked %d samples, want %d", n, from, len(walked), len(want))
			}
		}
	}
}

// n Record calls make ⌈n/StoreChunk⌉ allocations of one 4 KiB chunk
// each: nothing is regrown or copied.
func TestRecordAllocatesByTheChunk(t *testing.T) {
	const n = 10_000
	const chunkBytes = 4096
	chunks := uint64((n + StoreChunk - 1) / StoreChunk)
	if size := unsafe.Sizeof(Chunk[Outcome]{}); size > chunkBytes {
		t.Fatalf("a chunk of requests is %d bytes, over the %d-byte size class", size, chunkBytes)
	}
	c := NewCollector(1)
	record := func() {
		c.requests = Store[Outcome]{}
		for i := 0; i < n; i++ {
			c.Record(modelRequest(i))
		}
	}
	record() // warm up
	mallocs, bytes := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for try := 0; try < 5; try++ { // the quietest of five: the runtime allocates too
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		record()
		runtime.ReadMemStats(&after)
		mallocs = min(mallocs, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	if mallocs > chunks || bytes > chunks*chunkBytes {
		t.Fatalf("%d records: %d allocations of %d bytes in all, want at most %d chunks of %d bytes", n, mallocs, bytes, chunks, chunkBytes)
	}
}

// FuzzRequestStore drives the request log against a slice model under
// an operation stream read from the fuzz bytes: record one request,
// record the last one again many times (so chunk boundaries are
// crossed), or compare the log, walked from some index, with the model.
func FuzzRequestStore(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 1, 255, 2, 3})
	f.Add([]byte{0, 0xff, 0xff, 0xff, 0xff, 0xe0, 0xff, 0xff, 0xff, 0xe0, 0xff, 0xff, 0xff, 0xe0, 0xff, 0xff, 0xff, 1, 254, 2, 0, 1, 3, 2, 100})
	f.Fuzz(func(t *testing.T, ops []byte) {
		c := NewCollector(1)
		var model []Request
		for len(ops) > 0 {
			op := ops[0] % 3
			ops = ops[1:]
			switch {
			case op == 0 && len(ops) >= 16:
				count := func(b []byte) int { // any uint32, small ones often
					v := binary.LittleEndian.Uint32(b)
					return int(v >> (v % 32))
				}
				r := Request{
					Node:     int(binary.LittleEndian.Uint16(ops[0:])),
					File:     int(binary.LittleEndian.Uint16(ops[2:])),
					Answers:  count(ops[4:]),
					MinP2P:   count(ops[8:]),
					MinAdhoc: count(ops[12:]),
				}
				r.Found = r.Answers > 0
				ops = ops[16:]
				c.Record(r)
				model = append(model, r)
			case op == 1 && len(ops) >= 1 && len(model) > 0:
				for k := 0; k < int(ops[0])*2; k++ {
					c.Record(model[len(model)-1])
					model = append(model, model[len(model)-1])
				}
				ops = ops[1:]
			case op == 2 && len(ops) >= 1:
				from := int(ops[0]) * len(model) / 255
				ops = ops[1:]
				log := c.Outcomes()
				i := from
				log.Each(from, func(j int, o *Outcome) {
					if j != i || o.Request() != model[j] {
						t.Fatalf("record %d (walk from %d, step %d) = %+v, model %+v", j, from, i, o.Request(), model[min(j, len(model)-1)])
					}
					i++
				})
				if i != len(model) || log.N != len(model) || log.Check() != nil {
					t.Fatalf("walk from %d ended at %d of %d records (log %d, check %v)", from, i, len(model), log.N, log.Check())
				}
			default:
				ops = nil
			}
		}
		if got := c.Requests(); len(got) != len(model) || len(model) > 0 && !reflect.DeepEqual(got, model) {
			t.Fatalf("Requests() differs from the model of %d requests", len(model))
		}
	})
}
