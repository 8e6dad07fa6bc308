package aodv

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"manetp2p/internal/netif"
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
	if !ok || e.nextHop() != 2 || rt.hops(5) != 3 {
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
	if e.nextHop() != 7 || rt.hops(5) != 9 || e.seq != 11 {
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
	if e := rt.raw(5); e.haveSeq() || e.valid() {
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
	if e, ok := rt.get(5, 0); !ok || e.nextHop() != 2 || rt.hops(5) != 9 || e.haveSeq() {
		t.Fatalf("after seqless install: %+v ok=%v", *e, ok)
	}
	if !rt.update(6, 3, 4, 0, true, 0, life) {
		t.Fatal("install with sequence number 0 on an untouched row rejected")
	}
	if e, ok := rt.get(6, 0); !ok || e.nextHop() != 3 || !e.haveSeq() || e.seq != 0 {
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

// TestRouteEntryIs16Bytes pins the packed row: at 500 nodes the n-entry
// table per node is the largest state a replication holds.
func TestRouteEntryIs16Bytes(t *testing.T) {
	if got := unsafe.Sizeof(routeEntry{}); got != 16 {
		t.Fatalf("routeEntry is %d bytes, want 16", got)
	}
}

// A hop count outside the meta word's 14 bits reads back exactly, from
// the side array the first such count makes.
func TestRouteTableHopEscape(t *testing.T) {
	const life = 10 * sim.Second
	rt := newRouteTable(4)
	install := func(hops int) {
		t.Helper()
		rt.invalidate(1, 0)
		rt.update(1, 65535, hops, 0, false, 0, life)
		if e, ok := rt.get(1, 0); !ok || e.nextHop() != 65535 || rt.hops(1) != hops {
			t.Fatalf("after installing %d hops via 65535: ok=%v, via %d, %d hops", hops, ok, e.nextHop(), rt.hops(1))
		}
	}
	for _, hops := range []int{0, 1, 16382} {
		install(hops)
	}
	if rt.bigHops != nil {
		t.Fatal("a count below 16,383 made the side array")
	}
	for _, hops := range []int{16383, 70000, math.MaxInt32, -1, 5} {
		install(hops)
	}
}

// modelEntry and modelTable are the 24-byte route entry and its table
// as they were before the entry was packed: the model routeTable must
// agree with on every answer and every field.
type modelEntry struct {
	validUntil sim.Time
	seq        uint32
	nextHop    int32
	hopCount   int32
	valid      bool
	haveSeq    bool
}

type modelTable struct{ entries []modelEntry }

func (t *modelTable) get(dst int, now sim.Time) (*modelEntry, bool) {
	e := &t.entries[dst]
	return e, e.valid && e.validUntil >= now
}

func (t *modelTable) update(dst, nextHop, hopCount int, seq uint32, haveSeq bool, now, lifetime sim.Time) bool {
	e, currentValid := t.get(dst, now)
	accept := false
	switch {
	case !currentValid:
		accept = true
	case haveSeq && e.haveSeq && seqGreater(seq, e.seq):
		accept = true
	case haveSeq && e.haveSeq && seq == e.seq && hopCount < int(e.hopCount):
		accept = true
	case haveSeq && !e.haveSeq:
		accept = true
	case !haveSeq && hopCount < int(e.hopCount):
		accept = true
	}
	if !accept {
		return false
	}
	e.nextHop = int32(nextHop)
	e.hopCount = int32(hopCount)
	if haveSeq {
		if !e.haveSeq || seqGreater(seq, e.seq) || seq == e.seq {
			e.seq = seq
		}
		e.haveSeq = true
	}
	e.validUntil = now + lifetime
	e.valid = true
	return true
}

func (t *modelTable) refresh(dst int, now, lifetime sim.Time) {
	if e, ok := t.get(dst, now); ok {
		e.validUntil = now + lifetime
	}
}

func (t *modelTable) invalidate(dst int, now sim.Time) (uint32, bool) {
	e, wasValid := t.get(dst, now)
	e.valid = false
	if e.haveSeq {
		e.seq++
	}
	return e.seq, wasValid
}

func (t *modelTable) invalidateVia(out []netif.Unreachable, via int, now sim.Time) []netif.Unreachable {
	for dst := range t.entries {
		if e, ok := t.get(dst, now); ok && int(e.nextHop) == via {
			seq, _ := t.invalidate(dst, now)
			out = append(out, netif.Unreachable{Dst: dst, Seq: seq})
		}
	}
	return out
}

// The values routeModelRun draws from: next hops up to the 16-bit
// limit, hop counts on both sides of the escape and up to the int32
// limit, and sequence numbers that wrap.
var (
	modelNextHops = []int{0, 1, 2, 3, 4, 5, 6, 7, 65534, 65535}
	modelHops     = []int{0, 1, 1, 2, 2, 3, 4, 5, 9, 16381, 16382, 16383, 16384, 70000, math.MaxInt32}
	modelSeqs     = []uint32{0, 1, 2, 3, 10, 11, 0x7fffffff, 0x80000000, 0xfffffffe, 0xffffffff}
	modelLives    = []sim.Time{sim.Second, 30 * sim.Second, 100 * sim.Second}
)

// routeModelRun drives a routeTable of 8 destinations and its modelTable
// through the operation stream next draws (next(n) is a choice in
// [0, n); false ends the stream): update, refresh, invalidate,
// invalidateVia, get and raw, with clock advances of 0–9 s. It fails t
// at the first answer or field the two disagree on and returns how many
// updates took the hop-count escape.
func routeModelRun(t *testing.T, next func(n int) (int, bool)) (escapes int) {
	const nodes = 8
	rt, model := newRouteTable(nodes), &modelTable{entries: make([]modelEntry, nodes)}
	var now sim.Time
	var got, want []netif.Unreachable
	for step := 0; ; step++ {
		op, ok1 := next(6)
		dst, ok2 := next(nodes)
		if !ok1 || !ok2 {
			return escapes
		}
		switch op {
		case 0:
			nh, _ := next(len(modelNextHops))
			h, _ := next(len(modelHops))
			sq, _ := next(len(modelSeqs))
			have, _ := next(2)
			life, _ := next(len(modelLives))
			hops := modelHops[h]
			g := rt.update(dst, modelNextHops[nh], hops, modelSeqs[sq], have == 1, now, modelLives[life])
			w := model.update(dst, modelNextHops[nh], hops, modelSeqs[sq], have == 1, now, modelLives[life])
			if g != w {
				t.Fatalf("step %d: update(%d, via %d, %d hops, seq %#x, %v) = %v, model says %v", step, dst, modelNextHops[nh], hops, modelSeqs[sq], have == 1, g, w)
			}
			if g && hops >= hopEscape {
				escapes++
			}
		case 1:
			life, _ := next(len(modelLives))
			rt.refresh(dst, now, modelLives[life])
			model.refresh(dst, now, modelLives[life])
		case 2:
			gs, gw := rt.invalidate(dst, now)
			ws, ww := model.invalidate(dst, now)
			if gs != ws || gw != ww {
				t.Fatalf("step %d: invalidate(%d) = (%#x, %v), model says (%#x, %v)", step, dst, gs, gw, ws, ww)
			}
		case 3:
			nh, _ := next(len(modelNextHops))
			got = rt.invalidateVia(got[:0], modelNextHops[nh], now)
			want = model.invalidateVia(want[:0], modelNextHops[nh], now)
			if !slices.Equal(got, want) {
				t.Fatalf("step %d: invalidateVia(%d) = %v, model says %v", step, modelNextHops[nh], got, want)
			}
		case 4:
			if _, g := rt.get(dst, now); g != func() bool { _, w := model.get(dst, now); return w }() {
				t.Fatalf("step %d: get(%d) valid = %v, model disagrees", step, dst, g)
			}
		case 5:
			adv, _ := next(10)
			now += sim.Time(adv) * sim.Second
		}
		for d := range nodes {
			e, w := rt.raw(d), &model.entries[d]
			if e.validUntil != w.validUntil || e.seq != w.seq || e.valid() != w.valid || e.haveSeq() != w.haveSeq ||
				e.nextHop() != int(w.nextHop) || rt.hops(d) != int(w.hopCount) {
				t.Fatalf("step %d: row %d is {until %v seq %#x valid %v haveSeq %v via %d hops %d}, model {until %v seq %#x valid %v haveSeq %v via %d hops %d}",
					step, d, e.validUntil, e.seq, e.valid(), e.haveSeq(), e.nextHop(), rt.hops(d),
					w.validUntil, w.seq, w.valid, w.haveSeq, w.nextHop, w.hopCount)
			}
		}
	}
}

// The packed table answers every operation as the 24-byte one did, over
// random sequences that take the hop-count escape and wrap sequence
// numbers.
func TestRouteTableMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	escapes := 0
	for range 200 {
		steps := 2000
		escapes += routeModelRun(t, func(n int) (int, bool) {
			steps--
			return rng.Intn(n), steps >= 0
		})
	}
	if escapes == 0 {
		t.Fatal("no update took the hop-count escape")
	}
}

// FuzzRouteTable feeds routeModelRun's operation stream from the fuzz
// bytes, one byte a choice. The seeds install 16,383 and 70,000 hops
// via 65,535, wrap a sequence number, and run a random 2 KiB stream.
func FuzzRouteTable(f *testing.F) {
	f.Add([]byte{0, 1, 9, 11, 0, 0, 1, 0, 1, 0, 13, 9, 1, 1, 4, 1, 2, 1, 3, 0, 0})
	f.Add([]byte{0, 2, 3, 4, 9, 1, 2, 2, 2, 2, 0, 2, 3, 4, 1, 1, 0, 2, 2, 0, 3, 0, 3})
	f.Add(bytes.Repeat([]byte{0, 3, 8, 14, 7, 1, 1, 5, 0, 9, 3, 0, 4}, 16))
	long := make([]byte, 2048)
	rand.New(rand.NewSource(49)).Read(long)
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		routeModelRun(t, func(n int) (int, bool) {
			if len(data) == 0 {
				return 0, false
			}
			b := data[0]
			data = data[1:]
			return int(b) % n, true
		})
	})
}
