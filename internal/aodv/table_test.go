package aodv

import (
	"slices"
	"testing"

	"manetp2p/internal/sim"
)

func TestSeqGreaterWraparound(t *testing.T) {
	cases := []struct {
		a, b uint32
		want bool
	}{
		{2, 1, true},
		{1, 2, false},
		{1, 1, false},
		{0, 0xffffffff, true}, // wrapped: 0 is "greater" than max
		{0xffffffff, 0, false},
		{0x80000001, 1, false}, // more than half the space apart
	}
	for _, c := range cases {
		if got := seqGreater(c.a, c.b); got != c.want {
			t.Errorf("seqGreater(%d,%d) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestRouteTableInstallAndExpiry(t *testing.T) {
	rt := newRouteTable(8)
	const life = 10 * sim.Second
	if !rt.update(5, 2, 3, 7, true, 0, life) {
		t.Fatal("fresh install rejected")
	}
	e, ok := rt.get(5, 5*sim.Second)
	if !ok || e.nextHop != 2 || e.hopCount != 3 {
		t.Fatalf("get = %+v ok=%v, want valid route via 2", e, ok)
	}
	if _, ok := rt.get(5, 11*sim.Second); ok {
		t.Fatal("expired route still valid")
	}
	// An expired route must accept any replacement.
	if !rt.update(5, 9, 8, 1, true, 12*sim.Second, life) {
		t.Fatal("replacement of expired route rejected")
	}
}

func TestRouteTableFreshnessRules(t *testing.T) {
	rt := newRouteTable(8)
	const life = 100 * sim.Second
	rt.update(5, 2, 3, 10, true, 0, life)
	// Older sequence number: reject.
	if rt.update(5, 4, 1, 9, true, 0, life) {
		t.Error("stale-seq update accepted")
	}
	// Same seq, longer path: reject.
	if rt.update(5, 4, 5, 10, true, 0, life) {
		t.Error("same-seq longer-path update accepted")
	}
	// Same seq, shorter path: accept.
	if !rt.update(5, 4, 2, 10, true, 0, life) {
		t.Error("same-seq shorter-path update rejected")
	}
	// Newer seq, even if longer: accept.
	if !rt.update(5, 7, 9, 11, true, 0, life) {
		t.Error("fresher-seq update rejected")
	}
	e, _ := rt.get(5, 0)
	if e.nextHop != 7 || e.hopCount != 9 || e.seq != 11 {
		t.Errorf("entry = %+v, want via 7 hops 9 seq 11", e)
	}
	// Seqless update against seq-bearing valid route: only shorter wins.
	if rt.update(5, 8, 12, 0, false, 0, life) {
		t.Error("seqless longer update accepted")
	}
	if !rt.update(5, 8, 3, 0, false, 0, life) {
		t.Error("seqless shorter update rejected")
	}
}

func TestRouteTableInvalidateBumpsSeq(t *testing.T) {
	rt := newRouteTable(8)
	rt.update(5, 2, 3, 10, true, 0, 100*sim.Second)
	seq, was := rt.invalidate(5, 0)
	if !was || seq != 11 {
		t.Fatalf("invalidate = (%d,%v), want (11,true)", seq, was)
	}
	if _, ok := rt.get(5, 0); ok {
		t.Fatal("invalidated route still valid")
	}
	// A route with the bumped seq must now be acceptable again.
	if !rt.update(5, 3, 4, 11, true, 0, 100*sim.Second) {
		t.Fatal("route with bumped seq rejected after invalidate")
	}
}

func TestRouteTableInvalidateVia(t *testing.T) {
	rt := newRouteTable(8)
	const life = 100 * sim.Second
	rt.update(5, 2, 3, 10, true, 0, life)
	rt.update(6, 2, 4, 20, true, 0, life)
	rt.update(7, 3, 1, 30, true, 0, life)
	lost := rt.invalidateVia(nil, 2, 0)
	if len(lost) != 2 {
		t.Fatalf("invalidateVia lost %v, want 2 destinations", lost)
	}
	if _, ok := rt.get(7, 0); !ok {
		t.Error("route via different hop was torn down")
	}
	for _, u := range lost {
		if u.Dst != 5 && u.Dst != 6 {
			t.Errorf("unexpected lost destination %d", u.Dst)
		}
	}
}

func TestRouteTableRefresh(t *testing.T) {
	rt := newRouteTable(8)
	rt.update(5, 2, 3, 10, true, 0, 10*sim.Second)
	rt.refresh(5, 8*sim.Second, 10*sim.Second)
	if _, ok := rt.get(5, 15*sim.Second); !ok {
		t.Fatal("refreshed route expired at original deadline")
	}
	// Refreshing an invalid route is a no-op.
	rt.invalidate(5, 15*sim.Second)
	rt.refresh(5, 15*sim.Second, 10*sim.Second)
	if _, ok := rt.get(5, 16*sim.Second); ok {
		t.Fatal("refresh resurrected an invalid route")
	}
}

// TestRouteTableZeroEntryMeansNoRoute pins what replaced the map's
// missing key: a destination never written reads as "no route, nothing
// known" through every method, and the first write behaves as an
// install.
func TestRouteTableZeroEntryMeansNoRoute(t *testing.T) {
	const life = 10 * sim.Second
	rt := newRouteTable(8)
	if e, ok := rt.get(5, 0); ok || *e != (routeEntry{}) {
		t.Fatalf("get on an untouched row = %+v ok=%v, want the zero entry, invalid", *e, ok)
	}
	if e := rt.raw(5); e.haveSeq || e.valid {
		t.Fatalf("raw on an untouched row = %+v, want no sequence number, invalid", *e)
	}
	if seq, was := rt.invalidate(5, 0); seq != 0 || was {
		t.Fatalf("invalidate on an untouched row = (%d,%v), want (0,false)", seq, was)
	}
	rt.refresh(5, 0, life)
	if *rt.raw(5) != (routeEntry{}) {
		t.Fatalf("invalidate or refresh wrote an untouched row: %+v", *rt.raw(5))
	}
	if lost := rt.invalidateVia(nil, 0, 0); lost != nil {
		t.Fatalf("invalidateVia(0) on an empty table tore down %v; the zero entry's next hop 0 is not a route", lost)
	}
	// Every kind of first update is accepted, whatever it claims.
	if !rt.update(5, 2, 9, 0, false, 0, life) {
		t.Fatal("seqless install on an untouched row rejected")
	}
	if e, ok := rt.get(5, 0); !ok || e.nextHop != 2 || e.hopCount != 9 || e.haveSeq {
		t.Fatalf("after seqless install: %+v ok=%v", *e, ok)
	}
	if !rt.update(6, 3, 4, 0, true, 0, life) {
		t.Fatal("install with sequence number 0 on an untouched row rejected")
	}
	if e, ok := rt.get(6, 0); !ok || e.nextHop != 3 || !e.haveSeq || e.seq != 0 {
		t.Fatalf("after install with seq 0: %+v ok=%v", *e, ok)
	}
	// An invalidated row that never had a sequence number is back to
	// "no route": any update wins, and there is still no number to bump.
	if seq, was := rt.invalidate(5, 0); seq != 0 || !was {
		t.Fatalf("invalidate of the seqless route = (%d,%v), want (0,true)", seq, was)
	}
	if !rt.update(5, 7, 30, 0, false, 0, life) {
		t.Fatal("longer seqless route rejected after invalidate")
	}
}

func TestRouteTableInvalidateViaWalksInIDOrder(t *testing.T) {
	const life = 100 * sim.Second
	rt := newRouteTable(8)
	for _, dst := range []int{6, 1, 7, 3} { // installed out of order
		rt.update(dst, 2, 1, uint32(10*dst), true, 0, life)
	}
	rt.update(4, 5, 1, 40, true, 0, life)         // another next hop
	rt.update(0, 2, 1, 5, true, 0, 10*sim.Second) // expired by the time of the break
	lost := rt.invalidateVia(nil, 2, 50*sim.Second)
	var order []int
	for _, u := range lost {
		order = append(order, u.Dst)
		if want := uint32(10*u.Dst) + 1; u.Seq != want {
			t.Errorf("dst %d reported with seq %d, want the bumped %d", u.Dst, u.Seq, want)
		}
	}
	if !slices.Equal(order, []int{1, 3, 6, 7}) {
		t.Fatalf("invalidateVia tore down %v, want the live routes via 2 in ascending id order", order)
	}
	if _, ok := rt.get(4, 50*sim.Second); !ok {
		t.Error("route via a different hop was torn down")
	}
	if rt.raw(0).seq != 5 {
		t.Error("an expired route had its sequence number bumped")
	}
}
