package sim

// Ticker invokes fn every interval until stopped.
type Ticker struct {
	sim      *Sim
	interval Time
	event    Handle
	fn       func()
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
	t.event = s.ScheduleArg(interval, tick, Arg{X: t})
	return t
}

// tick runs the ticker in Arg.X and re-arms it.
func tick(a Arg) {
	t := a.X.(*Ticker)
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped {
		t.event = t.sim.ScheduleArg(t.interval, tick, a)
	}
}

// Stop halts the ticker; no further callbacks run.
func (t *Ticker) Stop() {
	t.stopped = true
	t.event.Cancel()
}
