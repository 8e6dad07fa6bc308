package sim

import (
	"strings"
	"testing"
)

// collectAudit runs Audit and returns the reported rules.
func collectAudit(s *Sim) []string {
	var rules []string
	s.Audit(func(rule, detail string) { rules = append(rules, rule+": "+detail) })
	return rules
}

func assertRule(t *testing.T, rules []string, want string) {
	t.Helper()
	for _, r := range rules {
		if strings.HasPrefix(r, want+":") {
			return
		}
	}
	t.Fatalf("audit did not report %q; got %v", want, rules)
}

func TestAuditCleanSimReportsNothing(t *testing.T) {
	s := New(1)
	for i := 0; i < 50; i++ {
		d := Time(i%7) * Second
		if i%2 == 0 {
			s.Schedule(d, func() {})
		} else {
			h := s.ScheduleArg(d, func(Arg) {}, Arg{I0: i})
			if i%3 == 0 {
				h.Cancel()
			}
		}
	}
	s.Run(3 * Second) // fire some, recycle slots, leave the rest queued
	if rules := collectAudit(s); len(rules) != 0 {
		t.Fatalf("clean sim reported violations: %v", rules)
	}
	s.Run(MaxTime)
	if rules := collectAudit(s); len(rules) != 0 {
		t.Fatalf("drained sim reported violations: %v", rules)
	}
}

func TestAuditDetectsHeapDisorder(t *testing.T) {
	s := New(1)
	s.Schedule(1*Second, func() {})
	s.Schedule(2*Second, func() {})
	s.Schedule(3*Second, func() {})
	// Swap the root with a child: the min-heap property breaks.
	s.queue.items[0], s.queue.items[1] = s.queue.items[1], s.queue.items[0]
	assertRule(t, collectAudit(s), "heap-order")
}

func TestAuditDetectsPastEvent(t *testing.T) {
	s := New(1)
	s.Schedule(5*Second, func() {})
	s.Schedule(10*Second, func() {})
	s.Step() // clock at 5 s
	s.queue.items[0].at = 2 * Second
	assertRule(t, collectAudit(s), "past-event")
}

func TestAuditDetectsSeqCorruption(t *testing.T) {
	s := New(1)
	s.Schedule(1*Second, func() {})
	s.Schedule(2*Second, func() {})
	s.queue.items[1].seq = s.queue.items[0].seq
	assertRule(t, collectAudit(s), "seq-dup")

	// No seq is ever queued twice, so a lazily-cancelled holder is as
	// much a corruption as a live one.
	s.queue.items[1].cancelled = true
	assertRule(t, collectAudit(s), "seq-dup")
	s.queue.items[1].cancelled = false

	s.queue.items[1].seq = s.seq + 100
	assertRule(t, collectAudit(s), "seq-bound")
}

func TestAuditDetectsMissingCallback(t *testing.T) {
	s := New(1)
	s.Schedule(1*Second, func() {})
	s.queue.items[0].fn = nil
	assertRule(t, collectAudit(s), "callback")
}

func TestAuditDetectsFreeListCorruption(t *testing.T) {
	s := New(1)
	s.Schedule(0, func() {})
	s.Run(Second) // one recycled slot on the free list
	if s.free == nil {
		t.Fatal("expected a recycled slot")
	}

	// A recycled slot that kept its callback would fire stale work when
	// the slot is next allocated.
	s.free.fn = callFunc
	assertRule(t, collectAudit(s), "free-list")
	s.free.fn = nil

	s.free.cancelled = true
	assertRule(t, collectAudit(s), "free-list")
	s.free.cancelled = false

	// A slot both queued and free is the structural form of fired-handle
	// reuse: the queue and the pool would hand out the same memory twice.
	// (Schedule consumes the pooled slot, so point the free list at the
	// queued event directly.)
	s.Schedule(5*Second, func() {})
	s.free = s.queue.items[0]
	assertRule(t, collectAudit(s), "free-list")
}

func TestAuditDetectsFreeListCycle(t *testing.T) {
	s := New(1)
	s.Schedule(0, func() {})
	s.Schedule(0, func() {})
	s.Run(Second) // two recycled slots
	if s.free == nil || s.free.nextFree == nil {
		t.Fatal("expected two recycled slots")
	}
	s.free.nextFree.nextFree = s.free
	assertRule(t, collectAudit(s), "free-list")
}
