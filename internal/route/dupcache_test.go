package route

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"manetp2p/internal/netif"
	"manetp2p/internal/sim"
)

// refCache is the reference model the index is tested against: one
// node's cache as a private map from key to mark, with the semantics the
// per-node tables had — a key is a duplicate while its mark is younger
// than Timeout; a node at HardCap live marks loses its oldest down to
// three quarters of the cap before taking another — and the two declared
// differences: marking a live duplicate leaves its age alone, and
// "oldest" means mark order.
type refCache struct {
	cfg       CacheConfig
	marks     map[Key]refMark
	seq       int
	evictions int
	expiries  int
}

type refMark struct {
	t   sim.Time
	seq int
}

func newRefCache(cfg CacheConfig) *refCache {
	return &refCache{cfg: cfg, marks: make(map[Key]refMark)}
}

func (r *refCache) seen(k Key, now sim.Time) bool {
	m, ok := r.marks[k]
	return ok && now-m.t < r.cfg.Timeout
}

// live drops expired marks and returns how many remain.
func (r *refCache) live(now sim.Time) int {
	for k, m := range r.marks {
		if now-m.t >= r.cfg.Timeout {
			delete(r.marks, k)
			r.expiries++
		}
	}
	return len(r.marks)
}

func (r *refCache) mark(k Key, now sim.Time) bool {
	if r.seen(k, now) {
		return true
	}
	if n := r.live(now); n >= r.cfg.HardCap {
		var oldest []Key
		for k := range r.marks {
			oldest = append(oldest, k)
		}
		slices.SortFunc(oldest, func(a, b Key) int { return r.marks[a].seq - r.marks[b].seq })
		for _, old := range oldest[:n-r.cfg.HardCap*3/4] {
			delete(r.marks, old)
			r.evictions++
		}
	}
	r.seq++
	r.marks[k] = refMark{t: now, seq: r.seq}
	return false
}

// auditClean fails the test if the plane's audit reports anything.
func auditClean(t *testing.T, pl *Plane) {
	t.Helper()
	pl.Audit(func(rule, detail string) { t.Errorf("audit: %s: %s", rule, detail) })
}

// TestDupIndexMatchesReferenceModel drives two cache families with
// different timeouts and caps, 70 nodes each (two bitset words), through
// a seeded random interleaving of marks, read-only probes, flood-shaped
// bursts, hard-cap crossings and clock advances that land exactly on and
// one tick either side of a mark's timeout, and requires every answer to
// equal the per-node reference model's.
func TestDupIndexMatchesReferenceModel(t *testing.T) {
	const nodes = 70
	cfgs := []CacheConfig{
		{Timeout: 4 * sim.Second, HardCap: 12},
		{Timeout: 7 * sim.Second, HardCap: 9},
	}
	s := sim.New(1)
	pl := testPlane(s, nodes)
	caches := make([][]*DupCache, nodes) // [node][family]
	models := make([][]*refCache, nodes)
	for n := range caches {
		core := NewCore(n, pl)
		for f, cfg := range cfgs {
			caches[n] = append(caches[n], NewDupCache(core, []netif.PacketKind{netif.PktRREQ, netif.PktBcast}[f], cfg))
			models[n] = append(models[n], newRefCache(cfg))
		}
	}
	if len(pl.dups) != len(cfgs) {
		t.Fatalf("%d nodes × %d caches made %d indexes, want one per family", nodes, len(cfgs), len(pl.dups))
	}

	// made remembers, per family, every accepted mark in time order, so
	// the clock can be steered onto the oldest one's timeout.
	type made struct {
		node int
		k    Key
		t    sim.Time
	}
	var fifo [2][]made
	rng := rand.New(rand.NewSource(18))
	dups := 0
	mark := func(n, f int, k Key) {
		got, want := caches[n][f].Mark(k), models[n][f].mark(k, s.Now())
		if got != want {
			t.Fatalf("t=%v node %d family %d Mark(%+v) = %v, model says %v", s.Now(), n, f, k, got, want)
		}
		if got {
			dups++
		} else {
			fifo[f] = append(fifo[f], made{n, k, s.Now()})
		}
	}
	seen := func(n, f int, k Key) {
		if got, want := caches[n][f].Seen(k), models[n][f].seen(k, s.Now()); got != want {
			t.Fatalf("t=%v node %d family %d Seen(%+v) = %v, model says %v", s.Now(), n, f, k, got, want)
		}
	}
	for step := 0; step < 60_000; step++ {
		n, f := rng.Intn(nodes), rng.Intn(len(cfgs))
		// The key pool drifts, so new floods keep starting while old
		// ones are still live.
		k := Key{Origin: rng.Intn(6), ID: uint32(step/400*3 + rng.Intn(12))}
		switch p := rng.Intn(100); {
		case p < 55:
			mark(n, f, k)
		case p < 60: // one flood reaching a run of nodes back to back
			for i, reach := 0, 1+rng.Intn(nodes); i < reach; i++ {
				mark((n+i)%nodes, f, k)
			}
		case p < 61: // a storm at one node: crosses its hard cap
			for i := 0; i < cfgs[f].HardCap; i++ {
				mark(n, f, Key{Origin: 100 + n, ID: uint32(step + i)})
			}
		case p < 75:
			seen(n, f, k)
		case p < 80:
			if got, want := caches[n][f].Len(), models[n][f].live(s.Now()); got != want {
				t.Fatalf("t=%v node %d family %d Len = %d, model holds %d", s.Now(), n, f, got, want)
			}
		case p < 97:
			s.Run(s.Now() + sim.Time(rng.Intn(20_000)))
		default:
			// Land one tick before, on, or one tick after the timeout of
			// the oldest mark that can still be live, and probe it.
			q := fifo[f]
			for len(q) > 0 && q[0].t+cfgs[f].Timeout+1 <= s.Now() {
				q = q[1:]
			}
			fifo[f] = q
			if len(q) == 0 {
				continue
			}
			if at := q[0].t + cfgs[f].Timeout + sim.Time(rng.Intn(3)-1); at > s.Now() {
				s.Run(at)
			}
			seen(q[0].node, f, q[0].k)
		}
		if step%2000 == 0 {
			auditClean(t, pl)
		}
	}
	auditClean(t, pl)
	evictions, expiries := 0, 0
	for n := range models {
		for f, m := range models[n] {
			if got, want := caches[n][f].Len(), m.live(s.Now()); got != want {
				t.Errorf("node %d family %d ends with Len %d, model holds %d", n, f, got, want)
			}
			evictions += m.evictions
			expiries += m.expiries
		}
	}
	if dups == 0 || evictions == 0 || expiries == 0 {
		t.Fatalf("run exercised %d duplicates, %d evictions, %d expiries; want all three", dups, evictions, expiries)
	}
	t.Logf("%v simulated: %d duplicates, %d hard-cap evictions, %d expiries", s.Now(), dups, evictions, expiries)
}

// TestDupCacheRemarkLeavesAgeAlone pins the one declared change of
// semantics from the per-node tables: marking a key that is still a
// duplicate does not restart its window (RFC 3561 §6.3 buffers an RREQ
// id from first receipt).
func TestDupCacheRemarkLeavesAgeAlone(t *testing.T) {
	c, s := testCore(6)
	const timeout = 10 * sim.Second
	dc := NewDupCache(c, netif.PktBcast, cacheFor(timeout))
	k := Key{Origin: 3, ID: 7}
	if dc.Mark(k) {
		t.Fatal("first mark reported a duplicate")
	}
	s.Run(timeout - 1)
	if !dc.Mark(k) {
		t.Fatal("mark inside the window not reported as a duplicate")
	}
	s.Run(timeout)
	if dc.Seen(k) {
		t.Fatal("re-marking a live duplicate restarted its age")
	}
	if dc.Mark(k) {
		t.Fatal("mark at the timeout reported a duplicate")
	}
	if got := dc.Len(); got != 1 {
		t.Fatalf("Len = %d, want 1", got)
	}
}

// TestDupCacheDuplicateAtHardCapEvictsNothing pins the order of the two
// tests in mark: the node's bit first, the cap second.
func TestDupCacheDuplicateAtHardCapEvictsNothing(t *testing.T) {
	c, _ := testCore(7)
	const hardCap = 8
	dc := NewDupCache(c, netif.PktBcast, CacheConfig{Timeout: sim.Minute, HardCap: hardCap})
	for i := 0; i < hardCap; i++ {
		dc.Mark(Key{Origin: 1, ID: uint32(i)})
	}
	for i := 0; i < hardCap; i++ {
		if !dc.Mark(Key{Origin: 1, ID: uint32(i)}) {
			t.Fatalf("key %d not a duplicate", i)
		}
	}
	if got := dc.Len(); got != hardCap {
		t.Fatalf("Len = %d after duplicates at the cap, want %d", got, hardCap)
	}
	if !dc.Seen(Key{Origin: 1, ID: 0}) {
		t.Fatal("a duplicate arriving at the cap evicted the oldest mark")
	}
	auditClean(t, c.plane)
}

// collidingKeys returns n keys of one origin whose probes start at the
// same slot of x's table.
func collidingKeys(x *dupIndex, origin, n int) []Key {
	var keys []Key
	for id := uint32(0); len(keys) < n; id++ {
		k := Key{Origin: origin, ID: id}
		if hash(k)&x.mask == hash(Key{Origin: origin})&x.mask {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestDupIndexRecordRemovalKeepsProbeRunsIntact expires the record at
// the front of a run of colliding keys: the rest must stay reachable
// (backward-shift deletion), the freed record must come back all-zero,
// and the key that reuses it must not inherit anyone's bit.
func TestDupIndexRecordRemovalKeepsProbeRunsIntact(t *testing.T) {
	s := sim.New(8)
	pl := testPlane(s, 3)
	const timeout = 10 * sim.Second
	var dc [3]*DupCache
	for n := range dc {
		dc[n] = NewDupCache(NewCore(n, pl), netif.PktBcast, cacheFor(timeout))
	}
	x := pl.dups[0]
	keys := collidingKeys(x, 5, 4)
	dc[0].Mark(keys[0])
	dc[1].Mark(keys[0])
	s.Run(sim.Second)
	dc[0].Mark(keys[1])
	dc[0].Mark(keys[2])
	s.Run(timeout) // keys[0] expires at both nodes; its record leaves the table
	if dc[0].Seen(keys[0]) || dc[1].Seen(keys[0]) {
		t.Fatal("expired key still seen")
	}
	if x.nrec != 2 || len(x.free) != 1 {
		t.Fatalf("%d records in the table, %d free; want 2 and 1", x.nrec, len(x.free))
	}
	if !dc[0].Seen(keys[1]) || !dc[0].Seen(keys[2]) {
		t.Fatal("removing the head of a probe run lost a key behind it")
	}
	auditClean(t, pl)
	// keys[3] reuses the freed record: node 2 marked it, nobody else did.
	if dc[2].Mark(keys[3]) {
		t.Fatal("new key reported as a duplicate")
	}
	if len(x.free) != 0 {
		t.Fatal("freed record not reused")
	}
	if dc[0].Seen(keys[3]) || dc[1].Seen(keys[3]) {
		t.Fatal("ghost hit: a reused record kept bits of its previous key")
	}
	if dc[2].Seen(keys[0]) {
		t.Fatal("ghost hit: the previous key answers from the reused record")
	}
	auditClean(t, pl)
}

// TestDupIndexReprobesAfterEviction is the second trap: a mark that
// crosses the hard cap evicts the node's oldest key, whose record sits
// in front of the new key in the same probe run. Removing it shifts the
// run, so the slot probed before the eviction is stale; inserting there
// would leave the new key behind a gap, unreachable — never a duplicate.
func TestDupIndexReprobesAfterEviction(t *testing.T) {
	c, _ := testCore(9)
	const hardCap = 4 // evicts one mark per crossing; the table stays at 16 slots
	dc := NewDupCache(c, netif.PktBcast, CacheConfig{Timeout: sim.Minute, HardCap: hardCap})
	keys := collidingKeys(dc.x, 5, 2)
	dc.Mark(keys[0]) // oldest: the one the crossing evicts
	for i := 1; i < hardCap; i++ {
		dc.Mark(Key{Origin: 6, ID: uint32(i)})
	}
	if dc.Mark(keys[1]) {
		t.Fatal("new key reported as a duplicate")
	}
	if dc.Seen(keys[0]) {
		t.Fatal("crossing the cap did not evict the oldest mark")
	}
	if !dc.Mark(keys[1]) {
		t.Fatal("key marked across an eviction is not found again")
	}
	auditClean(t, c.plane)
}

// TestPlaneAuditDetectsCorruption breaks the index once per rule and
// requires Audit to name that rule.
func TestPlaneAuditDetectsCorruption(t *testing.T) {
	build := func() (*Plane, *dupIndex) {
		s := sim.New(10)
		pl := testPlane(s, 4)
		for n := 0; n < 4; n++ {
			dc := NewDupCache(NewCore(n, pl), netif.PktBcast, CacheConfig{Timeout: sim.Minute, HardCap: 16})
			for id := 0; id <= n+2; id++ {
				dc.Mark(Key{Origin: 9, ID: uint32(id)})
			}
			s.Run(s.Now() + sim.Second)
		}
		auditClean(t, pl)
		return pl, pl.dups[0]
	}
	for _, tc := range []struct {
		rule    string
		corrupt func(x *dupIndex)
	}{
		{"log-order", func(x *dupIndex) { x.at(1).dt++ }},
		{"log-order", func(x *dupIndex) { x.headT++ }},
		{"log-order", func(x *dupIndex) { x.swept = x.headT + x.cfg.Timeout }},
		{"bit-count", func(x *dupIndex) { x.set(0)[0] ^= 1 << 3 }},
		{"bit-count", func(x *dupIndex) { x.live[2]-- }},
		{"bit-count", func(x *dupIndex) { x.at(0).rec = dupDead }},
		{"table-reach", func(x *dupIndex) { slot, _ := x.find(Key{Origin: 9, ID: 1}); x.table[slot] = 0 }},
		{"table-reach", func(x *dupIndex) { x.free = append(x.free, 0) }},
		{"node-bound", func(x *dupIndex) { x.cfg.HardCap = 5 }},
	} {
		pl, x := build()
		tc.corrupt(x)
		var rules []string
		pl.Audit(func(rule, detail string) { rules = append(rules, rule) })
		if !slices.Contains(rules, tc.rule) {
			t.Errorf("corruption aimed at %s reported %q", tc.rule, strings.Join(rules, ","))
		}
	}
}

// markModel is one cache family as the index sees it: a reference model
// per node, plus what the index knows across nodes. A key's holders are
// the nodes whose model holds it, and holders reports them with the
// instant the key's record was born plus Timeout, a record being born
// when a key nobody holds is marked.
type markModel struct {
	nodes []*refCache
	born  map[Key]sim.Time
}

func newMarkModel(cfg CacheConfig, nodes int) *markModel {
	m := &markModel{born: make(map[Key]sim.Time)}
	for range nodes {
		m.nodes = append(m.nodes, newRefCache(cfg))
	}
	return m
}

// holders returns the nodes holding k live, in id order.
func (m *markModel) holders(k Key, now sim.Time) []int {
	var nodes []int
	for n, r := range m.nodes {
		if r.seen(k, now) {
			nodes = append(nodes, n)
		}
	}
	return nodes
}

func (m *markModel) mark(node int, k Key, now sim.Time) bool {
	if len(m.holders(k, now)) == 0 {
		m.born[k] = now
	}
	return m.nodes[node].mark(k, now)
}

// dupModelFamilies are the cache bounds dupModelRun is run with: marks
// living 2 s, and marks living longer than one skip entry's 2^32−1 µs,
// so a gap can take several.
var dupModelFamilies = []CacheConfig{
	{Timeout: 2 * sim.Second, HardCap: 256},
	{Timeout: 3 << 32, HardCap: 256},
}

// dupRunStats counts what one dupModelRun reached: marks that grew the
// log while it wrapped round its ring with the head mid-chunk, and marks
// logged behind one skip entry and behind several.
type dupRunStats struct {
	grewWrapped, skips, multiSkips int
}

// dupModelRun drives one family of 40 caches bounded by cfg and its
// markModel through the operation stream next draws (next(n) is a
// choice in [0, n); false ends the stream): marks, floods reaching a
// run of nodes, storms that cross a node's hard cap, Seen, holders and
// Len probes, and clock advances — short ones, gaps over a log entry's
// 65,535 µs while marks are live, and ones past the timeout. It fails t
// at the first answer the two disagree on.
func dupModelRun(t *testing.T, cfg CacheConfig, next func(n int) (int, bool)) (st dupRunStats) {
	const nodes = 40
	s := sim.New(19)
	pl := testPlane(s, nodes)
	dc := make([]*DupCache, nodes)
	for n := range dc {
		dc[n] = NewDupCache(NewCore(n, pl), netif.PktBcast, cfg)
	}
	x, model := pl.dups[0], newMarkModel(cfg, nodes)
	fresh := uint32(1 << 20) // storm keys, never drawn from the pool

	mark := func(n int, k Key) {
		x.retire() // what Mark does first, so the state below is the one it grows from
		wrapped := x.head+x.n > len(x.log)<<dupChunkShift
		mid, slots, entries := x.head&dupChunkMask != 0, len(x.log), x.n
		if got, want := dc[n].Mark(k), model.mark(n, k, s.Now()); got != want {
			t.Fatalf("t=%v node %d Mark(%+v) = %v, model says %v", s.Now(), n, k, got, want)
		}
		if len(x.log) > slots && wrapped && mid {
			st.grewWrapped++
		}
		switch x.n - entries { // the mark, after its skip entries
		case 2:
			st.skips++
		case 3, 4:
			st.multiSkips++
		}
	}
	for {
		op, ok := next(64)
		if !ok {
			break
		}
		n, _ := next(nodes)
		o, _ := next(8)
		id, _ := next(16)
		// The key pool drifts with the clock, so new floods keep starting
		// while old ones are live.
		k := Key{Origin: o, ID: uint32(s.Now()/(100*sim.Millisecond)) + uint32(id)}
		switch {
		case op < 30:
			mark(n, k)
		case op < 40:
			reach, _ := next(nodes)
			for i := 0; i <= reach; i++ {
				mark((n+i)%nodes, k)
			}
		case op < 44:
			for range cfg.HardCap {
				fresh++
				mark(n, Key{Origin: 100 + n, ID: fresh})
			}
		case op < 50:
			if got, want := dc[n].Seen(k), model.nodes[n].seen(k, s.Now()); got != want {
				t.Fatalf("t=%v node %d Seen(%+v) = %v, model says %v", s.Now(), n, k, got, want)
			}
		case op < 54:
			set, until := x.holders(k)
			var got []int
			for n := range nodes {
				if set != nil && set[n>>6]&(1<<(n&63)) != 0 {
					got = append(got, n)
				}
			}
			want := model.holders(k, s.Now())
			if !slices.Equal(got, want) {
				t.Fatalf("t=%v holders(%+v) = %v, model says %v", s.Now(), k, got, want)
			}
			if want != nil && until != model.born[k]+cfg.Timeout {
				t.Fatalf("t=%v holders(%+v) hold until %v, model says %v", s.Now(), k, until, model.born[k]+cfg.Timeout)
			}
		case op < 57:
			if got, want := dc[n].Len(), model.nodes[n].live(s.Now()); got != want {
				t.Fatalf("t=%v node %d Len = %d, model holds %d", s.Now(), n, got, want)
			}
		case op < 63:
			step, _ := next(64)
			s.Run(s.Now() + sim.Time(step)*sim.Millisecond)
		default:
			// Past the timeout, but only now and then: the log must grow
			// long enough to span chunks between drains. As often, a gap
			// from 65.536 ms to 15/16 of the timeout, which skip entries
			// bridge while marks are live.
			switch gap, _ := next(8); gap {
			case 0:
				s.Run(s.Now() + cfg.Timeout + sim.Time(id))
			case 1:
				s.Run(s.Now() + 1<<16 + sim.Time(id)*(cfg.Timeout-1<<16)/16)
			}
		}
	}
	auditClean(t, pl)
	for n := range dc {
		if got, want := dc[n].Len(), model.nodes[n].live(s.Now()); got != want {
			t.Fatalf("node %d ends with Len %d, model holds %d", n, got, want)
		}
	}
	return st
}

// TestDupIndexMatchesMarkModel runs one seeded stream per family, long
// enough that the log spans several chunks, drains and refills and
// wraps round its ring, and bridges gaps with one skip entry and, in
// the long-lived family, with several; in the 2 s family the log also
// grows while wrapped with its head mid-chunk.
func TestDupIndexMatchesMarkModel(t *testing.T) {
	for f, cfg := range dupModelFamilies {
		rng := rand.New(rand.NewSource(39))
		steps := 20_000
		st := dupModelRun(t, cfg, func(n int) (int, bool) {
			steps--
			return rng.Intn(n), steps >= 0
		})
		if f == 0 && st.grewWrapped == 0 || st.skips == 0 || f > 0 && st.multiSkips == 0 {
			t.Fatalf("timeout %v: %+v; want the log grown while wrapped with its head mid-chunk, and gaps bridged", cfg.Timeout, st)
		}
		t.Logf("timeout %v: %+v", cfg.Timeout, st)
	}
}

// FuzzDupIndex feeds dupModelRun's operation stream from the fuzz
// bytes, one byte a choice, to each family. The 4 KiB seed grows the
// log to three or four chunks; the 13-byte one marks, leaves a gap of
// 1.04 s (in the long-lived family, of 1.79 h) and marks again.
func FuzzDupIndex(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 40, 5, 6, 7, 8, 9, 50, 11, 60, 3, 4, 63, 0, 0, 0, 0})
	f.Add(bytes.Repeat([]byte{42, 7, 3, 1, 33, 0, 2, 5, 36, 9, 9, 9}, 16))
	long := make([]byte, 4096)
	rand.New(rand.NewSource(39)).Read(long)
	f.Add(long)
	f.Add([]byte{0, 1, 2, 3, 63, 0, 0, 8, 1, 0, 2, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, cfg := range dupModelFamilies {
			in := data
			dupModelRun(t, cfg, func(n int) (int, bool) {
				if len(in) == 0 {
					return 0, false
				}
				b := in[0]
				in = in[1:]
				return int(b) % n, true
			})
		}
	})
}
