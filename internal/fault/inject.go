package fault

import (
	"math/rand"
	"sort"

	"manetp2p/internal/geom"
	"manetp2p/internal/sim"
)

// Hooks are the injector's levers into the simulated world. The fault
// package stays dependency-light on purpose: it never imports the radio
// or manet packages, it only pulls these callbacks.
type Hooks struct {
	// Pos returns the current position of a node (radio grid).
	Pos func(id int) geom.Point
	// Up reports whether a node is currently on the air.
	Up func(id int) bool
	// SetLinkFilter installs the per-delivery gate on the medium. The
	// filter returns true to drop a delivery from src to dst.
	SetLinkFilter func(filter func(src, dst int) bool)
	// NodeDown forces a node off the air (crash — distinct from churn).
	NodeDown func(id int)
	// NodeUp restarts a crashed node.
	NodeUp func(id int)
	// Members lists the overlay member ids (CrashGroup victims are
	// drawn from these).
	Members func() []int
}

// active tracks one currently-effective gating event; removal is by
// pointer identity so duplicate events in a plan stay independent.
type active struct{ ev Event }

// Injector executes a Plan against one replication. It must be armed
// before the simulation runs; all its draws come from the rng handed to
// New, so same seed + same plan reproduce the same failures.
type Injector struct {
	s   *sim.Sim
	rng *rand.Rand
	h   Hooks

	plan       Plan
	partitions []*active
	jams       []*active
	bursts     []*active
	flapsDown  int // link-flap windows currently gating all links
}

// New builds an injector for plan. The rng must be dedicated to the
// injector (take a fresh sim.NewRand stream) so fault draws never
// perturb the rest of the simulation.
func New(s *sim.Sim, rng *rand.Rand, plan Plan, h Hooks) *Injector {
	return &Injector{s: s, rng: rng, h: h, plan: plan}
}

// Arm schedules every plan event on the simulator and, if any event
// gates deliveries, installs the link filter. Call once, before Run.
func (inj *Injector) Arm() {
	gating := false
	for _, ev := range inj.plan.Events {
		ev := ev
		switch ev.Kind {
		case Partition:
			gating = true
			inj.s.At(ev.At, func() { inj.activate(&inj.partitions, ev) })
		case Jam:
			gating = true
			inj.s.At(ev.At, func() { inj.activate(&inj.jams, ev) })
		case LossBurst:
			gating = true
			inj.s.At(ev.At, func() { inj.activate(&inj.bursts, ev) })
		case LinkFlap:
			gating = true
			inj.s.At(ev.At, func() { inj.flapCycle(ev, ev.At) })
		case CrashGroup:
			inj.s.At(ev.At, func() { inj.crash(ev) })
		}
	}
	if gating && inj.h.SetLinkFilter != nil {
		inj.h.SetLinkFilter(inj.filter)
	}
}

// activate adds ev to a live list and schedules its removal at clear.
func (inj *Injector) activate(list *[]*active, ev Event) {
	a := &active{ev}
	*list = append(*list, a)
	inj.s.Schedule(ev.Duration, func() {
		for i, x := range *list {
			if x == a {
				*list = append((*list)[:i], (*list)[i+1:]...)
				return
			}
		}
	})
}

// flapCycle runs one period of a link flap starting at start: links are
// down for DownFor, then up until the next period boundary.
func (inj *Injector) flapCycle(ev Event, start sim.Time) {
	end := ev.Clears()
	if start >= end {
		return
	}
	inj.flapsDown++
	downEnd := start + ev.DownFor
	if downEnd > end {
		downEnd = end
	}
	inj.s.At(downEnd, func() {
		inj.flapsDown--
		next := start + ev.Period
		if next < end {
			inj.s.At(next, func() { inj.flapCycle(ev, next) })
		}
	})
}

// crash takes the event's victim group down and schedules the restart.
// Victims are the first Count (or Fraction of membership) currently-up
// members of a deterministic shuffle.
func (inj *Injector) crash(ev Event) {
	ids := append([]int(nil), inj.h.Members()...)
	sort.Ints(ids) // canonical order before shuffling: determinism
	inj.rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	count := ev.Count
	if count == 0 {
		count = int(ev.Fraction*float64(len(ids)) + 0.5)
	}
	var victims []int
	for _, id := range ids {
		if len(victims) >= count {
			break
		}
		if inj.h.Up(id) {
			inj.h.NodeDown(id)
			victims = append(victims, id)
		}
	}
	inj.s.Schedule(ev.Duration, func() {
		for _, id := range victims {
			inj.h.NodeUp(id)
		}
	})
}

// filter is the per-delivery gate installed on the medium. It runs on
// the hot path, so the common no-active-fault case returns immediately.
func (inj *Injector) filter(src, dst int) bool {
	if inj.flapsDown > 0 {
		return true
	}
	for _, a := range inj.partitions {
		if a.ev.side(inj.h.Pos(src)) != a.ev.side(inj.h.Pos(dst)) {
			return true
		}
	}
	loss := 0.0
	for _, a := range inj.bursts {
		loss = combineLoss(loss, a.ev.Loss)
	}
	if len(inj.jams) > 0 {
		ps, pd := inj.h.Pos(src), inj.h.Pos(dst)
		for _, a := range inj.jams {
			if a.ev.inRegion(ps) || a.ev.inRegion(pd) {
				loss = combineLoss(loss, a.ev.Loss)
			}
		}
	}
	if loss <= 0 {
		return false
	}
	return loss >= 1 || inj.rng.Float64() < loss
}

// combineLoss stacks independent drop probabilities.
func combineLoss(p, q float64) float64 { return 1 - (1-p)*(1-q) }
