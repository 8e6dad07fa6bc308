package sim

// Timer is a restartable one-shot timer bound to a Sim. It exists because
// protocol code (keepalive timeouts, retry backoff) constantly re-arms
// the same conceptual timer; Timer keeps that pattern to two methods and
// guarantees at most one pending firing.
type Timer struct {
	sim   *Sim
	event Handle
	fn    func()
}

// NewTimer returns an unarmed timer that runs fn when it fires.
func NewTimer(s *Sim, fn func()) *Timer {
	if fn == nil {
		// Unreachable from input: every caller passes a method value or closure.
		panic("sim: NewTimer with nil callback")
	}
	return &Timer{sim: s, fn: fn}
}

// Reset (re)arms the timer to fire after delay, cancelling any pending
// firing.
func (t *Timer) Reset(delay Time) {
	t.event.Cancel()
	t.event = t.sim.Schedule(delay, t.fn)
}

// Stop cancels any pending firing. Stopping an unarmed timer is a no-op.
func (t *Timer) Stop() {
	t.event.Cancel()
	t.event = Handle{}
}

// Armed reports whether a firing is pending.
func (t *Timer) Armed() bool { return t.event.Pending() }

// Ticker invokes fn every interval until stopped.
type Ticker struct {
	sim      *Sim
	interval Time
	event    Handle
	fn       func()
	tick     func() // self-rescheduling wrapper, built once in NewTicker
	stopped  bool
}

// NewTicker starts a repeating callback with the given interval. The
// first firing happens one full interval from now. Interval must be
// positive: a zero-interval ticker would live-lock the event loop.
func NewTicker(s *Sim, interval Time, fn func()) *Ticker {
	if interval <= 0 {
		// Unreachable from input: callers pass constants, defaulted periods (DSDV's UpdatePeriod, the
		// checker's Every) or periods they have tested positive (HealthPeriod, SnapshotEvery).
		panic("sim: NewTicker with non-positive interval")
	}
	if fn == nil {
		// Unreachable from input: every caller passes a method value or closure.
		panic("sim: NewTicker with nil callback")
	}
	t := &Ticker{sim: s, interval: interval, fn: fn}
	t.tick = func() {
		if t.stopped {
			return
		}
		t.fn()
		if !t.stopped {
			t.event = t.sim.Schedule(t.interval, t.tick)
		}
	}
	t.event = s.Schedule(interval, t.tick)
	return t
}

// Stop halts the ticker; no further callbacks run.
func (t *Ticker) Stop() {
	t.stopped = true
	t.event.Cancel()
}
