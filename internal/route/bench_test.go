package route

import (
	"math"
	"testing"
	"unsafe"

	"manetp2p/internal/netif"
	"manetp2p/internal/sim"
)

// dupCheckBench is the tracked duplicate-test workload: the test every
// radio reception makes, in the order a simulation makes them. One
// flood's key is tested at each of 150 nodes — a first arrival and three
// duplicates — then the next flood's, 10 ms later, so 3000 floods are
// live at any moment and every mark made expires inside the timed region.
type dupCheckBench struct {
	s             *sim.Sim
	caches        []*DupCache
	next          int // floods made so far
	firsts, dupes int
}

const (
	dupCheckNodes   = 150
	dupCheckDups    = 3
	dupCheckTimeout = 30 * sim.Second
	dupCheckGap     = 10 * sim.Millisecond
)

// newDupCheckBench returns the workload with the index at its
// steady-state size.
func newDupCheckBench() *dupCheckBench {
	w := &dupCheckBench{s: sim.New(5), caches: make([]*DupCache, dupCheckNodes)}
	pl := testPlane(w.s, dupCheckNodes)
	for n := range w.caches {
		w.caches[n] = NewDupCache(NewCore(n, pl), netif.PktBcast, cacheFor(dupCheckTimeout))
	}
	for warm := 2 * int(dupCheckTimeout/dupCheckGap); w.next < warm; {
		w.flood()
	}
	w.firsts, w.dupes = 0, 0
	return w
}

func (w *dupCheckBench) flood() {
	k := Key{Origin: w.next % dupCheckNodes, ID: uint32(w.next)}
	w.next++
	for _, dc := range w.caches {
		for d := 0; d <= dupCheckDups; d++ {
			if dc.Mark(k) {
				w.dupes++
			} else {
				w.firsts++
			}
		}
	}
	w.s.Run(w.s.Now() + dupCheckGap)
}

// check fails tb unless n floods since the warm-up produced one first
// arrival and three duplicates at every node.
func (w *dupCheckBench) check(tb testing.TB, n int) {
	if w.firsts != dupCheckNodes*n || w.dupes != dupCheckDups*dupCheckNodes*n {
		tb.Fatalf("%d floods: %d first arrivals and %d duplicates, want %d and %d",
			n, w.firsts, w.dupes, dupCheckNodes*n, dupCheckDups*dupCheckNodes*n)
	}
}

// BenchmarkDupCheck's contract from the steady state on is 0 allocs/op,
// and TestDupCheckZeroAllocs holds it at zero.
func BenchmarkDupCheck(b *testing.B) {
	w := newDupCheckBench()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.flood()
	}
	w.check(b, b.N)
}

// The same contract in `go test`: marks made, found again and expired
// without one heap allocation.
func TestDupCheckZeroAllocs(t *testing.T) {
	w := newDupCheckBench()
	const runs = 200
	if allocs := batchAllocs(runs, w.flood); allocs != 0 {
		t.Errorf("%d floods' duplicate tests allocate %d objects, want 0", runs, allocs)
	}
	w.check(t, 2*allocBatches*runs) // each count after a warm-up batch
}

// batchAllocs counts the heap allocations of a batch of runs calls of
// op, each count after a warm-up batch, and returns the fewest of
// allocBatches counts: 2*allocBatches*runs calls in all. Counted whole,
// an allocation made less than once per call (a chunk every so many
// ops) cannot round away, as it would in testing.AllocsPerRun's
// per-call quotient. One of op's shows in every count; one the Go
// runtime makes meanwhile (its background scavenger re-arming a timer)
// in one count at most.
func batchAllocs(runs int, op func()) int {
	batch := func() {
		for range runs {
			op()
		}
	}
	fewest := math.MaxInt
	for range allocBatches {
		fewest = min(fewest, int(testing.AllocsPerRun(1, batch)))
	}
	return fewest
}

// allocBatches is how many batches batchAllocs counts.
const allocBatches = 5

// dupLogBench is the chunk-reuse workload: each op fills one family's
// log to dupLogMarks marks, spread over dupLogNodes nodes, then lets
// every one of them expire, so the next op's first mark drains it.
// A fill ends three quarters into a chunk: were the drained log not
// rewound to its chunk's start, the next fill would need a fifth chunk.
type dupLogBench struct {
	s      *sim.Sim
	x      *dupIndex
	caches []*DupCache
	next   int
}

const (
	dupLogNodes = 64
	dupLogMarks = 3*dupChunkLen + 3*dupChunkLen/4
)

func newDupLogBench() *dupLogBench {
	w := &dupLogBench{s: sim.New(6), caches: make([]*DupCache, dupLogNodes)}
	pl := testPlane(w.s, dupLogNodes)
	for n := range w.caches {
		w.caches[n] = NewDupCache(NewCore(n, pl), netif.PktBcast, cacheFor(sim.Second))
	}
	w.x = pl.dups[0]
	// The first fill grows the ring and the record table, the first
	// refill the record free list and the spare list.
	w.cycle()
	w.cycle()
	return w
}

func (w *dupLogBench) cycle() {
	for range dupLogMarks {
		w.caches[w.next%dupLogNodes].Mark(Key{Origin: 1, ID: uint32(w.next)})
		w.next++
	}
	w.s.Run(w.s.Now() + sim.Second)
}

// capacity is the marks the log's chunks hold, spare ones included.
func (w *dupLogBench) capacity() int {
	held := 0
	for _, c := range w.x.log {
		if c != nil {
			held++
		}
	}
	return (held + len(w.x.spare)) * dupChunkLen
}

// BenchmarkDupLogCycle's contract is 0 allocs/op:
// TestDupLogReusesChunks holds it at zero.
func BenchmarkDupLogCycle(b *testing.B) {
	w := newDupLogBench()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.cycle()
	}
}

// The same contract in `go test`: a log that fills, drains and fills
// again takes its chunks back from the spare list, and never holds a
// chunk more than the fill needs.
func TestDupLogReusesChunks(t *testing.T) {
	w := newDupLogBench()
	if allocs := batchAllocs(20, w.cycle); allocs != 0 {
		t.Errorf("refilling a drained log 20 times allocates %d objects, want 0", allocs)
	}
	if got := w.capacity(); got >= dupLogMarks+dupChunkLen {
		t.Errorf("log capacity %d marks after refills of %d, want below %d", got, dupLogMarks, dupLogMarks+dupChunkLen)
	}
	if w.x.n != dupLogMarks {
		t.Errorf("log holds %d marks after a fill, want %d", w.x.n, dupLogMarks)
	}
}

// TestDupLogBytesPerMark holds the log entry at 8 bytes: N live marks,
// made 1 ms apart so no gap needs a skip entry, hold at most 8·N bytes
// of chunks plus the one the tail is filling.
func TestDupLogBytesPerMark(t *testing.T) {
	const nodes, marks = 150, 5 * dupChunkLen / 2
	s := sim.New(7)
	pl := testPlane(s, nodes)
	caches := make([]*DupCache, nodes)
	for n := range caches {
		caches[n] = NewDupCache(NewCore(n, pl), netif.PktBcast, cacheFor(sim.Minute))
	}
	for i := range marks {
		caches[i%nodes].Mark(Key{Origin: i % nodes, ID: uint32(i)})
		s.Run(s.Now() + sim.Millisecond)
	}
	live := 0
	for _, dc := range caches {
		live += dc.Len()
	}
	x := pl.dups[0]
	chunks := len(x.spare)
	for _, c := range x.log {
		if c != nil {
			chunks++
		}
	}
	if got, bound := chunks*int(unsafe.Sizeof(dupChunk{})), 8*live+int(unsafe.Sizeof(dupChunk{})); live != marks || x.n != marks || got > bound {
		t.Errorf("%d live marks in %d log entries hold %d bytes of chunks, want %d in %d and at most %d bytes", live, x.n, got, marks, marks, bound)
	}
}

// pendingBench is the tracked pending-buffer workload: one discovery's
// life in the buffer, as an on-demand router lives it. Each op starts an
// entry for the next of pendingDsts destinations, parks pendingPkts
// packets in it, takes it when the route arrives, flushes its queue and
// recycles it.
type pendingBench struct {
	p       *Pending[netif.Packet]
	next    int
	flushed int
}

const (
	pendingDsts = 8
	pendingPkts = 4
)

func newPendingBench() *pendingBench {
	w := &pendingBench{p: NewPending[netif.Packet](16)}
	for range pendingDsts { // every destination's key, and the free list, in place
		w.cycle()
	}
	w.flushed = 0
	return w
}

// cycle is one start → push ×pendingPkts → take and flush → recycle.
func (w *pendingBench) cycle() {
	dst := w.next % pendingDsts
	w.next++
	d := w.p.Start(dst)
	for i := range pendingPkts {
		w.p.Push(d, netif.Packet{Kind: netif.PktData, Dst: dst, Msg: netif.TestMsg(uint32(i))})
	}
	d, _ = w.p.Take(dst)
	for _, pkt := range d.Queue {
		if pkt.Dst == dst {
			w.flushed++
		}
	}
	w.p.Recycle(d)
}

// check fails tb unless n cycles flushed every packet they parked and
// left no entry behind.
func (w *pendingBench) check(tb testing.TB, n int) {
	if w.flushed != n*pendingPkts {
		tb.Fatalf("%d cycles flushed %d packets, want %d", n, w.flushed, n*pendingPkts)
	}
	for dst := range pendingDsts {
		if _, ok := w.p.Get(dst); ok {
			tb.Fatalf("destination %d still has an entry", dst)
		}
	}
}

// BenchmarkPendingCycle's contract is 0 allocs/op:
// TestPendingCycleZeroAllocs holds it at zero.
func BenchmarkPendingCycle(b *testing.B) {
	w := newPendingBench()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.cycle()
	}
	w.check(b, b.N)
}

// The same contract in `go test`: a recycled entry keeps its queue, so a
// discovery's round trip through the buffer allocates nothing.
func TestPendingCycleZeroAllocs(t *testing.T) {
	w := newPendingBench()
	const runs = 200
	if allocs := batchAllocs(runs, w.cycle); allocs != 0 {
		t.Errorf("%d pending cycles allocate %d objects, want 0", runs, allocs)
	}
	w.check(t, 2*allocBatches*runs) // each count after a warm-up batch
}
