package sim

// Event is a scheduled callback slot. Events are pooled: the Sim owns
// every *Event and recycles it — through an intrusive free list — when
// it fires or when its lazy cancellation is discarded. Callers never
// hold an *Event; they hold the value-type Handle returned by the
// scheduling calls, which a generation counter keeps safe against
// recycling (cancelling a stale Handle is a no-op, never a misfire of
// the slot's next tenant).
type Event struct {
	at  Time
	seq uint64 // tie-breaker: FIFO order among same-instant events
	gen uint64 // bumped on recycle; Handles with an older gen are stale

	fn  func(Arg) // the callback, fired with arg
	arg Arg

	cancelled bool
	fired     bool
	nextFree  *Event // intrusive free-list link, meaningful only when pooled
}

// Arg is what an event's callback receives. A component schedules a
// package-level func(Arg) with its owner (a *Servent, a *Router, a
// *Network) in X and the per-call state (peer or destination ids,
// serials) in I0/I1, so scheduling allocates nothing and the component
// binds no method value: a pointer or a func value stored in an
// interface does not allocate. Schedule and At are the cold-path form:
// they carry a func() in X for callFunc.
type Arg struct {
	I0, I1 int
	X      any
}

// Handle identifies one scheduled firing. The zero Handle is valid and
// refers to nothing: Cancel on it is a no-op and Pending reports false,
// so callers can store Handles directly in structs without nil checks.
// Handles are values — copy them freely.
type Handle struct {
	ev  *Event
	gen uint64
}

// live reports whether the handle still refers to the firing it was
// created for (the slot has not been recycled for a new event).
func (h Handle) live() bool { return h.ev != nil && h.ev.gen == h.gen }

// Cancel prevents the event from firing. Cancelling an event that
// already fired, was already cancelled, or whose slot was recycled is a
// no-op. Cancellation is lazy: the entry stays in the queue and is
// discarded (and its slot recycled) when it reaches the head.
func (h Handle) Cancel() {
	if h.live() && !h.ev.fired {
		h.ev.cancelled = true
	}
}

// Pending reports whether the firing is still scheduled: not yet fired
// and not cancelled. A recycled slot reports false.
func (h Handle) Pending() bool {
	return h.live() && !h.ev.cancelled && !h.ev.fired
}

// eventQueue is a binary min-heap ordered by (at, seq). It is hand-rolled
// rather than wrapping container/heap to avoid the interface-call overhead
// on the simulator's hottest path.
type eventQueue struct {
	items []*Event
}

func (q *eventQueue) Len() int { return len(q.items) }

func (q *eventQueue) less(i, j int) bool {
	a, b := q.items[i], q.items[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (q *eventQueue) push(e *Event) {
	q.items = append(q.items, e)
	q.up(len(q.items) - 1)
}

func (q *eventQueue) pop() *Event {
	n := len(q.items)
	top := q.items[0]
	q.items[0] = q.items[n-1]
	q.items[n-1] = nil
	q.items = q.items[:n-1]
	if len(q.items) > 0 {
		q.down(0)
	}
	return top
}

// peek returns the earliest event without removing it, or nil if empty.
func (q *eventQueue) peek() *Event {
	if len(q.items) == 0 {
		return nil
	}
	return q.items[0]
}

func (q *eventQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.items[i], q.items[parent] = q.items[parent], q.items[i]
		i = parent
	}
}

func (q *eventQueue) down(i int) {
	n := len(q.items)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		smallest := left
		if right := left + 1; right < n && q.less(right, left) {
			smallest = right
		}
		if !q.less(smallest, i) {
			return
		}
		q.items[i], q.items[smallest] = q.items[smallest], q.items[i]
		i = smallest
	}
}
