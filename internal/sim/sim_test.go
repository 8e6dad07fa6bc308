package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	cases := []struct {
		sec  float64
		want Time
	}{
		{0, 0},
		{1, Second},
		{0.5, 500 * Millisecond},
		{3600, Hour},
		{1e-6, Microsecond},
	}
	for _, c := range cases {
		if got := FromSeconds(c.sec); got != c.want {
			t.Errorf("FromSeconds(%v) = %v, want %v", c.sec, got, c.want)
		}
		if got := c.want.Seconds(); got != c.sec {
			t.Errorf("(%v).Seconds() = %v, want %v", c.want, got, c.sec)
		}
	}
}

func TestTimeString(t *testing.T) {
	if got := (1500 * Millisecond).String(); got != "1.500000s" {
		t.Errorf("String() = %q, want 1.500000s", got)
	}
	if got := Time(-1500 * Millisecond).String(); got != "-1.500000s" {
		t.Errorf("String() = %q, want -1.500000s", got)
	}
}

func TestEventsFireInTimestampOrder(t *testing.T) {
	s := New(1)
	var order []int
	s.Schedule(3*Second, func() { order = append(order, 3) })
	s.Schedule(1*Second, func() { order = append(order, 1) })
	s.Schedule(2*Second, func() { order = append(order, 2) })
	s.Run(MaxTime)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
}

func TestSameInstantFIFO(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(Second, func() { order = append(order, i) })
	}
	s.Run(MaxTime)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events fired out of scheduling order: %v", order)
		}
	}
}

func TestClockAdvancesToEventTime(t *testing.T) {
	s := New(1)
	var at Time
	s.Schedule(7*Second, func() { at = s.Now() })
	s.Run(MaxTime)
	if at != 7*Second {
		t.Errorf("Now() inside event = %v, want 7s", at)
	}
	if s.Now() != 7*Second {
		t.Errorf("final Now() = %v, want 7s", s.Now())
	}
}

func TestRunHorizonStopsClock(t *testing.T) {
	s := New(1)
	fired := false
	s.Schedule(10*Second, func() { fired = true })
	s.Run(5 * Second)
	if fired {
		t.Error("event beyond horizon fired")
	}
	if s.Now() != 5*Second {
		t.Errorf("Now() = %v, want 5s (the horizon)", s.Now())
	}
	// The event must still be deliverable by a later Run.
	s.Run(MaxTime)
	if !fired {
		t.Error("event not fired after extending horizon")
	}
}

func TestRunAdvancesClockToFiniteHorizonOnDrain(t *testing.T) {
	s := New(1)
	s.Schedule(Second, func() {})
	s.Run(10 * Second)
	if s.Now() != 10*Second {
		t.Errorf("Now() = %v after drain, want the 10s horizon", s.Now())
	}
	// An infinite horizon must NOT teleport the clock.
	s2 := New(1)
	s2.Schedule(Second, func() {})
	s2.Run(MaxTime)
	if s2.Now() != Second {
		t.Errorf("Now() = %v after Run(MaxTime), want 1s", s2.Now())
	}
	// Horizons in the past leave the clock alone.
	s.Run(5 * Second)
	if s.Now() != 10*Second {
		t.Errorf("Now() = %v after stale horizon, want 10s", s.Now())
	}
}

func TestCancelPreventsFiring(t *testing.T) {
	s := New(1)
	fired := false
	e := s.Schedule(Second, func() { fired = true })
	if !e.Pending() {
		t.Error("Pending() = false before Cancel")
	}
	e.Cancel()
	if e.Pending() {
		t.Error("Pending() = true after Cancel")
	}
	s.Run(MaxTime)
	if fired {
		t.Error("cancelled event fired")
	}
}

func TestCancelFromInsideEarlierEvent(t *testing.T) {
	s := New(1)
	fired := false
	var e Handle
	s.Schedule(1*Second, func() { e.Cancel() })
	e = s.Schedule(2*Second, func() { fired = true })
	s.Run(MaxTime)
	if fired {
		t.Error("event cancelled by earlier event still fired")
	}
}

func TestScheduleFromWithinEvent(t *testing.T) {
	s := New(1)
	var times []Time
	s.Schedule(Second, func() {
		times = append(times, s.Now())
		s.Schedule(Second, func() { times = append(times, s.Now()) })
	})
	s.Run(MaxTime)
	if len(times) != 2 || times[0] != Second || times[1] != 2*Second {
		t.Fatalf("times = %v, want [1s 2s]", times)
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Schedule(-1) did not panic")
		}
	}()
	New(1).Schedule(-1, func() {})
}

func TestAtBeforeNowPanics(t *testing.T) {
	s := New(1)
	s.Schedule(5*Second, func() {})
	s.Run(MaxTime)
	defer func() {
		if recover() == nil {
			t.Error("At(past) did not panic")
		}
	}()
	s.At(Second, func() {})
}

func TestStopHaltsRun(t *testing.T) {
	s := New(1)
	count := 0
	for i := 1; i <= 10; i++ {
		s.Schedule(Time(i)*Second, func() {
			count++
			if count == 3 {
				s.Stop()
			}
		})
	}
	s.Run(MaxTime)
	if count != 3 {
		t.Errorf("count = %d after Stop, want 3", count)
	}
	// Run again resumes.
	s.Run(MaxTime)
	if count != 10 {
		t.Errorf("count = %d after resume, want 10", count)
	}
}

func TestStepExecutesOneEvent(t *testing.T) {
	s := New(1)
	count := 0
	s.Schedule(Second, func() { count++ })
	s.Schedule(2*Second, func() { count++ })
	if !s.Step() {
		t.Fatal("Step returned false with pending events")
	}
	if count != 1 {
		t.Fatalf("count = %d after one Step, want 1", count)
	}
	if !s.Step() || s.Step() {
		t.Fatal("Step count mismatch")
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	trace := func(seed int64) []int64 {
		s := New(seed)
		var out []int64
		var tick func()
		tick = func() {
			out = append(out, int64(s.Now()), s.Rand().Int63n(1000))
			if len(out) < 40 {
				s.Schedule(UniformDuration(s.Rand(), Millisecond, Second), tick)
			}
		}
		s.Schedule(0, tick)
		s.Run(MaxTime)
		return out
	}
	a, b := trace(42), trace(42)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := trace(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

func TestNewRandStreamsIndependent(t *testing.T) {
	s := New(7)
	r1, r2 := s.NewRand(), s.NewRand()
	same := true
	for i := 0; i < 16; i++ {
		if r1.Int63() != r2.Int63() {
			same = false
			break
		}
	}
	if same {
		t.Error("NewRand returned correlated streams")
	}
}

// Property: for any batch of delays, events fire in nondecreasing time
// order and the set of observed times equals the set scheduled.
func TestQuickEventOrdering(t *testing.T) {
	f := func(delays []uint32) bool {
		if len(delays) == 0 {
			return true
		}
		if len(delays) > 500 {
			delays = delays[:500]
		}
		s := New(1)
		var fired []Time
		for _, d := range delays {
			d := Time(d)
			s.Schedule(d, func() { fired = append(fired, s.Now()) })
		}
		s.Run(MaxTime)
		if len(fired) != len(delays) {
			return false
		}
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			return false
		}
		want := make([]Time, len(delays))
		for i, d := range delays {
			want[i] = Time(d)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if fired[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: the heap never yields an element earlier than one already
// yielded even under interleaved push/pop.
func TestQuickHeapInterleaved(t *testing.T) {
	f := func(ops []uint16, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var q eventQueue
		var seq uint64
		last := Time(-1)
		for _, op := range ops {
			if rng.Intn(3) != 0 || q.Len() == 0 {
				seq++
				at := last
				if at < 0 {
					at = 0
				}
				q.push(&Event{at: at + Time(op), seq: seq})
			} else {
				e := q.pop()
				if e.at < last {
					return false
				}
				last = e.at
			}
		}
		for q.Len() > 0 {
			e := q.pop()
			if e.at < last {
				return false
			}
			last = e.at
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestUniformDurationBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	lo, hi := 15*Second, 45*Second
	seenLo, seenHi := false, false
	for i := 0; i < 20000; i++ {
		v := UniformDuration(rng, lo, hi)
		if v < lo || v > hi {
			t.Fatalf("UniformDuration out of range: %v", v)
		}
		if v < lo+Second {
			seenLo = true
		}
		if v > hi-Second {
			seenHi = true
		}
	}
	if !seenLo || !seenHi {
		t.Error("UniformDuration does not cover range ends")
	}
	if got := UniformDuration(rng, lo, lo); got != lo {
		t.Errorf("degenerate range: got %v, want %v", got, lo)
	}
}

func TestUniformDurationPanicsOnInvertedRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on hi < lo")
		}
	}()
	UniformDuration(rand.New(rand.NewSource(1)), Second, 0)
}

func TestTickerRepeatsAndStops(t *testing.T) {
	s := New(1)
	var ticks []Time
	var tk *Ticker
	tk = NewTicker(s, Second, func() {
		ticks = append(ticks, s.Now())
		if len(ticks) == 3 {
			tk.Stop()
		}
	})
	s.Run(10 * Second)
	if len(ticks) != 3 {
		t.Fatalf("ticks = %v, want 3 entries", ticks)
	}
	for i, at := range ticks {
		if at != Time(i+1)*Second {
			t.Errorf("tick %d at %v, want %v", i, at, Time(i+1)*Second)
		}
	}
}

func TestZeroHandleIsInert(t *testing.T) {
	var h Handle
	h.Cancel() // must not panic
	if h.Pending() {
		t.Error("zero Handle reports pending")
	}
}

// A handle to a fired (and therefore recycled) event must stay inert even
// after its slot is reused for a new event: the generation counter is
// what makes lazy cancellation safe under pooling.
func TestStaleHandleAfterRecycleIsInert(t *testing.T) {
	s := New(1)
	h1 := s.Schedule(Second, func() {})
	s.Run(MaxTime)
	if h1.Pending() {
		t.Error("handle to fired event reports pending")
	}
	fired := false
	h2 := s.Schedule(Second, func() { fired = true })
	if h1.ev != h2.ev {
		t.Fatal("expected the freed slot to be reused (pool broken?)")
	}
	h1.Cancel() // stale: must not cancel the slot's new tenant
	if !h2.Pending() {
		t.Error("stale Cancel hit the slot's new tenant")
	}
	s.Run(MaxTime)
	if !fired {
		t.Error("recycled event did not fire")
	}
}

// The same holds for a handle whose cancelled entry the kernel purged
// from the queue head: the purge recycles the slot, and neither
// Pending nor a second Cancel may reach the slot's next tenant.
func TestCancelledHandleAfterPurgeIsInert(t *testing.T) {
	s := New(1)
	fired := false
	h1 := s.Schedule(5*Second, func() { fired = true })
	h1.Cancel()
	s.Run(6 * Second) // discards the cancelled entry, recycling its slot
	tenant := 0
	h2 := s.Schedule(2*Second, func() { tenant++ })
	if h1.ev != h2.ev {
		t.Fatal("expected the purged slot to be reused (pool broken?)")
	}
	if h1.Pending() {
		t.Error("cancelled handle reports pending after its slot was reused")
	}
	h1.Cancel() // stale: must not cancel the slot's new tenant
	s.Run(MaxTime)
	if fired || tenant != 1 {
		t.Errorf("cancelled event fired=%v, tenant fired %d times; want false and 1", fired, tenant)
	}
}

// Satellite regression: a lazily-cancelled event sitting at the queue
// head past the Run horizon used to stay enqueued forever; peek must
// purge it.
func TestRunPurgesCancelledHeadPastHorizon(t *testing.T) {
	s := New(1)
	for i := 0; i < 100; i++ {
		e := s.Schedule(10*Second, func() {})
		e.Cancel()
	}
	s.Run(5 * Second)
	if s.Pending() != 0 {
		t.Errorf("Pending() = %d after Run, want 0: cancelled heads past the horizon must be purged", s.Pending())
	}
	if s.Now() != 5*Second {
		t.Errorf("Now() = %v, want the 5s horizon", s.Now())
	}
}

// listSource is the simplest Source: entries in a slice kept sorted by
// (at, seq), each with a callback.
type listSource struct {
	s       *Sim
	entries []srcEntry
}

type srcEntry struct {
	at  Time
	seq uint64
	fn  func()
}

// add queues fn at instant at under a freshly reserved seq.
func (l *listSource) add(at Time, fn func()) {
	e := srcEntry{at: at, seq: l.s.ReserveSeq(), fn: fn}
	i := len(l.entries)
	for i > 0 && (l.entries[i-1].at > e.at || (l.entries[i-1].at == e.at && l.entries[i-1].seq > e.seq)) {
		i--
	}
	l.entries = append(l.entries, srcEntry{})
	copy(l.entries[i+1:], l.entries[i:])
	l.entries[i] = e
}

func (l *listSource) Next() (Time, uint64, bool) {
	if len(l.entries) == 0 {
		return 0, 0, false
	}
	return l.entries[0].at, l.entries[0].seq, true
}

func (l *listSource) Fire() {
	e := l.entries[0]
	l.entries = l.entries[1:]
	e.fn()
}

func newListSource(s *Sim) *listSource {
	l := &listSource{s: s}
	s.SetSource(l)
	return l
}

// A Source entry and a queued event at the same instant fire by seq:
// the entry's reserved number places it exactly where a Schedule call at
// that point would have — the property merged radio delivery depends on.
func TestReservedSeqPreservesOrdering(t *testing.T) {
	s := New(1)
	src := newListSource(s)
	var order []int
	src.add(Second, func() { order = append(order, 1) })
	s.Schedule(Second, func() { order = append(order, 2) })
	src.add(Second, func() { order = append(order, 3) })
	s.Schedule(Second, func() { order = append(order, 4) })
	// An earlier instant beats a smaller seq, from either side.
	s.Schedule(Millisecond, func() { order = append(order, -1) })
	src.add(2*Millisecond, func() { order = append(order, 0) })
	s.Run(MaxTime)
	want := []int{-1, 0, 1, 2, 3, 4}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	if s.Fired() != 6 {
		t.Errorf("Fired() = %d, want 6 (source entries count as kernel steps)", s.Fired())
	}
	if s.Now() != Second {
		t.Errorf("Run(MaxTime) left the clock at %v, want the last executed instant 1s", s.Now())
	}
}

// Run's horizon, Stop, Step and Due treat source entries like queued
// events.
func TestSourceHonoursHorizonStopAndStep(t *testing.T) {
	s := New(1)
	src := newListSource(s)
	var order []string
	src.add(Second, func() { order = append(order, "a"); s.Stop() })
	src.add(Second, func() { order = append(order, "b") })
	src.add(3*Second, func() { order = append(order, "c") })

	s.Run(500 * Millisecond)
	if len(order) != 0 || s.Now() != 500*Millisecond {
		t.Fatalf("Run short of the first entry fired %v, clock %v", order, s.Now())
	}
	if s.Due() {
		t.Error("Due() true with the earliest entry still in the future")
	}
	s.Run(2 * Second) // a stops the run between two same-instant entries
	if fmt.Sprint(order) != "[a]" || s.Now() != Second {
		t.Fatalf("after Stop: order %v clock %v, want [a] at 1s", order, s.Now())
	}
	if !s.Due() {
		t.Error("Due() false with a same-instant entry left behind by Stop")
	}
	if !s.Step() || fmt.Sprint(order) != "[a b]" {
		t.Fatalf("Step did not fire the source head: %v", order)
	}
	s.Run(2 * Second)
	if fmt.Sprint(order) != "[a b]" || s.Now() != 2*Second {
		t.Fatalf("Run(2s) fired past its horizon: order %v clock %v", order, s.Now())
	}
	// An entry added from inside Fire merges like any other.
	src.add(2*Second, func() {
		order = append(order, "d")
		src.add(s.Now(), func() { order = append(order, "e") })
	})
	s.Run(MaxTime)
	if fmt.Sprint(order) != "[a b d e c]" {
		t.Fatalf("order = %v, want [a b d e c]", order)
	}
	if s.Step() {
		t.Error("Step reported work with queue and source both empty")
	}
}

func TestScheduleArgDeliversPayload(t *testing.T) {
	s := New(1)
	var got []int
	fn := func(a Arg) { got = append(got, a.I0, a.I1) }
	s.ScheduleArg(Second, fn, Arg{I0: 7, I1: 9})
	h := s.ScheduleArg(2*Second, fn, Arg{I0: 1})
	if !h.Pending() {
		t.Error("ScheduleArg handle not pending")
	}
	h.Cancel()
	s.Run(MaxTime)
	if len(got) != 2 || got[0] != 7 || got[1] != 9 {
		t.Fatalf("got = %v, want [7 9]", got)
	}
}

// Alloc guard (ISSUE 2): once the pool is warm, scheduling and firing an
// event — plain or typed-arg — performs zero heap allocations.
func TestScheduleFireZeroAllocs(t *testing.T) {
	s := New(1)
	for i := 0; i < 64; i++ {
		s.Schedule(Time(i), func() {})
	}
	s.Run(MaxTime)

	n := 0
	fn := func() { n++ }
	if allocs := testing.AllocsPerRun(1000, func() {
		s.Schedule(Second, fn)
		s.Run(MaxTime)
	}); allocs != 0 {
		t.Errorf("Schedule+fire allocates %.1f allocs/op, want 0", allocs)
	}

	argFn := func(a Arg) { n += a.I0 }
	if allocs := testing.AllocsPerRun(1000, func() {
		s.ScheduleArg(Second, argFn, Arg{I0: 1, X: s})
		s.Run(MaxTime)
	}); allocs != 0 {
		t.Errorf("ScheduleArg+fire allocates %.1f allocs/op, want 0", allocs)
	}

	// BenchmarkSimEventQueue's op: the queue fills to 1025 events spread
	// over a second before it drains, so the heap is ten levels deep.
	if allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i <= 1024; i++ {
			s.Schedule(Time(i%1000)*Millisecond, fn)
		}
		s.Run(MaxTime)
	}); allocs != 0 {
		t.Errorf("filling the queue to 1025 and draining it allocates %.1f allocs/run, want 0", allocs)
	}
}

func TestPendingAndFiredCounters(t *testing.T) {
	s := New(1)
	s.Schedule(Second, func() {})
	s.Schedule(2*Second, func() {})
	if s.Pending() != 2 {
		t.Errorf("Pending() = %d, want 2", s.Pending())
	}
	s.Run(MaxTime)
	if s.Fired() != 2 {
		t.Errorf("Fired() = %d, want 2", s.Fired())
	}
	if s.Pending() != 0 {
		t.Errorf("Pending() = %d after drain, want 0", s.Pending())
	}
}

// Passed follows the kernel's frontier: keys before the entry firing
// now, before the entry a Step or a stopped Run fired last, and at or
// before the furthest horizon a Run reached; Peek names the next key.
func TestPassedFollowsTheFrontier(t *testing.T) {
	s := New(1)
	var seqs []uint64
	for i := 0; i < 3; i++ {
		seqs = append(seqs, s.Seq()+1)
		s.At(Second, func() {
			if !s.Passed(Second, seqs[0]-1) || s.Passed(Second, s.Seq()+1) {
				t.Errorf("inside an entry: wrong side of the frontier")
			}
		})
	}
	if s.Passed(0, 0) {
		t.Error("a fresh kernel has passed nothing")
	}
	if at, seq, ok := s.Peek(); !ok || at != Second || seq != seqs[0] {
		t.Fatalf("Peek = %v, %d, %v; want %v, %d, true", at, seq, ok, Second, seqs[0])
	}
	s.Step()
	if !s.Passed(Second, seqs[0]-1) || s.Passed(Second, seqs[1]) {
		t.Errorf("after one Step: passed %v, %v", s.Passed(Second, seqs[0]-1), s.Passed(Second, seqs[1]))
	}
	s.At(Second, func() { s.Stop() }) // after the other two at this instant
	s.Run(MaxTime)
	if !s.Passed(Second, seqs[2]) || s.Passed(Second, s.Seq()+1) || s.Passed(2*Second, 0) {
		t.Error("after a Run stopped mid-instant: wrong side of the frontier")
	}
	s.Run(3 * Second)
	if !s.Passed(3*Second, s.Seq()+5) || s.Passed(3*Second+1, 0) {
		t.Error("after a Run to its horizon: everything at or before it is passed, nothing after")
	}
	if _, _, ok := s.Peek(); ok {
		t.Error("Peek reports an entry on a drained kernel")
	}
	s.Run(2 * Second) // a horizon behind the frontier does not move it back
	if !s.Passed(3*Second, s.Seq()+5) || !s.Passed(Second, seqs[2]) {
		t.Error("a Run to an earlier horizon on a drained kernel moved the frontier back")
	}
}
