package sim

import (
	"fmt"
	"math"
	"math/rand"
)

// Sim is a deterministic discrete-event simulator. It is not safe for
// concurrent use; run one Sim per goroutine.
//
// Event slots are pooled: firing or discarding an event returns its
// *Event to an intrusive free list, so steady-state scheduling performs
// zero heap allocations. See Handle for how callers stay safe against
// slot reuse.
type Sim struct {
	now     Time
	queue   eventQueue
	src     Source // merged second stream of keyed work; nil when none
	seq     uint64
	free    *Event // intrusive free list of recycled event slots
	rngs    *rngSource
	rng     *rand.Rand
	stopped bool
	fired   uint64 // events executed, for diagnostics

	// Passed's frontier: the key firing now or fired last, or (until, max).
	posAt  Time
	posSeq uint64

	audit *auditScratch // Audit's scratch; nil until the first Audit
}

// New returns a simulator whose clock starts at 0. All randomness used by
// the simulation must flow from Rand or NewRand so that equal seeds give
// equal runs.
func New(seed int64) *Sim {
	src := newRNGSource(seed)
	return &Sim{rngs: src, rng: src.next()}
}

// Now reports the current simulation time.
func (s *Sim) Now() Time { return s.now }

// Rand returns the simulator's shared random stream.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// NewRand returns a fresh random stream seeded deterministically from the
// run seed. Components that draw random numbers independently of each
// other should each take their own stream at setup time, so that adding a
// draw in one component does not perturb the sequence seen by another.
func (s *Sim) NewRand() *rand.Rand { return s.rngs.next() }

// Source is a second stream of (at, seq)-keyed work that Run and Step
// merge with the event queue: each turn fires whichever of queue head
// and source head has the smaller key. A component that produces many
// short-lived entries inside a bounded window (the radio medium's
// in-flight deliveries) keeps them in a structure suited to that window
// instead of the general heap, takes each entry's seq from ReserveSeq at
// the moment it would otherwise have called Schedule, and so fires in
// exactly the order one queued event per entry would have.
type Source interface {
	// Next reports the key of the source's earliest entry, ok=false when
	// it holds none. It is called once per kernel turn and must be cheap.
	Next() (at Time, seq uint64, ok bool)
	// Fire removes and executes the entry Next last reported. The clock
	// already stands at its instant.
	Fire()
}

// SetSource installs the simulator's merged source. A Sim has at most
// one; installing a second panics.
func (s *Sim) SetSource(src Source) {
	if s.src != nil {
		// Unreachable from input: radio.NewMedium, the only caller, runs once per Sim in manet.Build.
		panic("sim: SetSource called twice")
	}
	s.src = src
}

// Pending reports how many events are queued (including lazily-cancelled
// ones that have not been discarded yet). Source entries are not counted.
func (s *Sim) Pending() int { return s.queue.Len() }

// Fired reports how many events and source entries have executed so far.
func (s *Sim) Fired() uint64 { return s.fired }

// Passed reports whether key (at, seq) precedes the entry firing now (or
// fired last), or is at or before the furthest horizon Run has reached.
func (s *Sim) Passed(at Time, seq uint64) bool {
	return at < s.posAt || (at == s.posAt && seq < s.posSeq)
}

// Peek reports the key of the entry Step would fire next, if any.
func (s *Sim) Peek() (at Time, seq uint64, ok bool) {
	ev, at, seq, fromSrc := s.next()
	return at, seq, fromSrc || ev != nil
}

// Seq reports how many queue sequence numbers have been issued. Together
// with Now, Fired and Pending it pins the scheduler's position; tests use
// it to check that two runs agree about event history.
func (s *Sim) Seq() uint64 { return s.seq }

// alloc takes an event slot from the free list (or the heap, while the
// pool is still warming up) and stamps it with a queue key.
func (s *Sim) alloc(t Time, seq uint64) *Event {
	e := s.free
	if e == nil {
		e = &Event{}
	} else {
		s.free = e.nextFree
		e.nextFree = nil
	}
	e.at = t
	e.seq = seq
	return e
}

// recycle invalidates every outstanding Handle to e and returns the slot
// to the free list.
func (s *Sim) recycle(e *Event) {
	e.gen++
	e.fn = nil
	e.arg = Arg{}
	e.cancelled = false
	e.fired = false
	e.nextFree = s.free
	s.free = e
}

// Schedule queues fn to run after delay and returns a handle that can
// cancel it. A negative delay panics: the past is immutable. Schedule
// and At store fn in Arg.X for callFunc; they suit cold paths and tests,
// where a capturing closure per call costs nothing. A component's
// recurring timers use ScheduleArg with a package-level callback (Arg).
func (s *Sim) Schedule(delay Time, fn func()) Handle { return s.At(s.now+delay, fn) }

// At queues fn to run at instant t, which must not precede Now.
func (s *Sim) At(t Time, fn func()) Handle {
	if fn == nil {
		// Unreachable from input: every caller passes a closure.
		panic("sim: At with nil callback")
	}
	return s.AtArg(t, callFunc, Arg{X: fn})
}

// callFunc is the callback of Schedule and At.
func callFunc(a Arg) { a.X.(func())() }

// ScheduleArg queues fn(arg) to run after delay; see Schedule.
func (s *Sim) ScheduleArg(delay Time, fn func(Arg), arg Arg) Handle {
	return s.AtArg(s.now+delay, fn, arg)
}

// AtArg queues fn(arg) to run at instant t, which must not precede Now,
// and returns a cancellation handle.
func (s *Sim) AtArg(t Time, fn func(Arg), arg Arg) Handle {
	if fn == nil {
		// Unreachable from input: every caller passes a package-level function or callFunc.
		panic("sim: AtArg with nil callback")
	}
	if t < s.now {
		// Unreachable from input: delays are non-negative (validated durations, router constants, radio
		// latency plus jitter, exponential draws), now+delay wraps only past MaxTime, and Scenario.Validate
		// bounds every scheduled scenario duration by MaxTime/2 (Params.Validate, sim.Horizon for plans).
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, s.now))
	}
	s.seq++
	e := s.alloc(t, s.seq)
	e.fn = fn
	e.arg = arg
	s.queue.push(e)
	return Handle{ev: e, gen: e.gen}
}

// ReserveSeq consumes and returns the next sequence number without
// scheduling anything. A Source reserves one per entry at the moment the
// entry is created, which places it among same-instant queued events
// exactly where a Schedule call at that point would have.
func (s *Sim) ReserveSeq() uint64 {
	s.seq++
	return s.seq
}

// peekLive returns the earliest non-cancelled queued event, discarding
// (and recycling) lazily-cancelled entries it finds at the head. Purging
// at peek keeps long runs with heavy Cancel traffic — retry backoff,
// re-armed keepalives — from growing the heap unboundedly, and ensures a
// cancelled entry past the Run horizon cannot sit at the head forever.
func (s *Sim) peekLive() *Event {
	for {
		next := s.queue.peek()
		if next == nil {
			return nil
		}
		if !next.cancelled {
			return next
		}
		s.queue.pop()
		s.recycle(next)
	}
}

// next picks the earliest pending work across the event queue and the
// source, and its key; fromSrc means the source holds it (ev is then
// meaningless), else ev is the live queue head, nil when both are empty.
func (s *Sim) next() (ev *Event, at Time, seq uint64, fromSrc bool) {
	ev = s.peekLive()
	if s.src != nil {
		if sat, sseq, ok := s.src.Next(); ok &&
			(ev == nil || sat < ev.at || (sat == ev.at && sseq < ev.seq)) {
			return nil, sat, sseq, true
		}
	}
	if ev != nil {
		at, seq = ev.at, ev.seq
	}
	return ev, at, seq, false
}

// step advances the clock to at and executes the work next selected.
func (s *Sim) step(ev *Event, at Time, seq uint64, fromSrc bool) {
	s.now = at
	s.posAt, s.posSeq = at, seq
	s.fired++
	if fromSrc {
		s.src.Fire()
		return
	}
	s.queue.pop()
	s.fire(ev)
}

// Due reports whether any live event or source entry is stamped at or
// before Now. After a Run that was not stopped it is false: Run fires
// everything up to its horizon.
func (s *Sim) Due() bool {
	ev, at, _, fromSrc := s.next()
	return (fromSrc || ev != nil) && at <= s.now
}

// Run executes events in timestamp order until the queue drains, the
// clock passes until, or Stop is called. Afterwards the clock stands at
// until (for any finite horizon), so wall-clock-dependent state like
// route expiry observes the full elapsed interval even if the event
// queue drained early; Run(MaxTime) leaves the clock at the last
// executed event, which can precede the last reception settled off the kernel.
func (s *Sim) Run(until Time) {
	s.stopped = false
	for !s.stopped {
		ev, at, seq, fromSrc := s.next()
		if ev == nil && !fromSrc {
			if until < MaxTime && until > s.now {
				s.now = until
			}
			s.reach(until)
			return
		}
		if at > until {
			s.now = until
			s.reach(until)
			return
		}
		s.step(ev, at, seq, fromSrc)
	}
}

// reach moves Passed's frontier to the end of instant until, never back.
func (s *Sim) reach(until Time) {
	if until >= s.posAt {
		s.posAt, s.posSeq = until, math.MaxUint64
	}
}

// Step executes the single earliest pending event or source entry and
// reports whether one was executed. Cancelled entries are skipped.
// Useful in tests.
func (s *Sim) Step() bool {
	ev, at, seq, fromSrc := s.next()
	if ev == nil && !fromSrc {
		return false
	}
	s.step(ev, at, seq, fromSrc)
	return true
}

// fire recycles the slot before invoking the callback, so the callback
// can immediately schedule into the same slot; the firing event's own
// Handles are already stale by then, which is exactly the "fired"
// semantics Handle.Pending reports.
func (s *Sim) fire(e *Event) {
	fn, arg := e.fn, e.arg
	s.recycle(e)
	fn(arg)
}

// Stop makes the current Run return after the in-flight event completes.
func (s *Sim) Stop() { s.stopped = true }
