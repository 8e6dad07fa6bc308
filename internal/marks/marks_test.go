package marks

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// val is the test's record value: a record must come out of Insert
// with it zero, whatever its number held before.
type val struct{ n int32 }

// modelRec is one key as the map model holds it: its record number, its
// node set and its value.
type modelRec struct {
	r   int32
	set map[int]bool
	n   int32
}

// wrapKeys are keys whose probes all start at the last slot of any
// table of up to 1<<16 slots: their probe run wraps round to slot 0.
var wrapKeys = func() []uint64 {
	var keys []uint64
	for k := uint64(1); len(keys) < 24; k++ {
		if hash(k)&0xffff == 0xffff {
			keys = append(keys, k)
		}
	}
	return keys
}()

// runStats counts what one indexModelRun reached: table doublings,
// removals from a probe run that wraps round the table's end, and
// inserts that reused a freed record.
type runStats struct {
	grows, wrapRemovals, reuses int
}

// indexModelRun drives an index of n nodes and a map model through the
// operation stream next draws (next(k) is a choice in [0, k); false
// ends the stream): marks that insert a key's record when it has none,
// removals, and probes. Keys come from a pool that drifts and from a
// fixed set whose probe runs collide and wrap, so the table grows,
// shrinks its runs by backward shift across the wrap, and reuses freed
// records. The model predicts each record number too (the free list is
// last in, first out), and an audit runs every 64 operations. It fails
// t at the first disagreement, then compares every key.
func indexModelRun(t *testing.T, n int, next func(k int) (int, bool)) (st runStats) {
	x := Make[val](n)
	model := map[uint64]*modelRec{}
	var free []int32
	made := int32(0)
	audit := func() {
		t.Helper()
		x.Audit(func(rule, detail string) { t.Fatalf("n=%d: audit: %s: %s", n, rule, detail) })
	}
	check := func(k uint64) {
		t.Helper()
		_, r := x.Find(k)
		m := model[k]
		switch {
		case m == nil && r >= 0:
			t.Fatalf("n=%d: key %#x found at record %d, model holds none", n, k, r)
		case m == nil:
			return
		case r != m.r:
			t.Fatalf("n=%d: key %#x found at record %d, model says %d", n, k, r, m.r)
		case x.Key(r) != k || x.Val(r).n != m.n:
			t.Fatalf("n=%d: record %d holds key %#x value %d, model says %#x and %d", n, r, x.Key(r), x.Val(r).n, k, m.n)
		}
		for node := range n {
			if x.Has(r, node) != m.set[node] {
				t.Fatalf("n=%d: key %#x node %d: Has = %v, model says %v", n, k, node, !m.set[node], m.set[node])
			}
		}
	}
	base := uint64(1 << 32)
	ops := 0
	for {
		op, ok := next(16)
		if !ok {
			break
		}
		node, _ := next(n)
		id, _ := next(64)
		k := base + uint64(id)
		if w, _ := next(4); w == 0 {
			k = wrapKeys[id%len(wrapKeys)]
		}
		switch m := model[k]; {
		case op < 8: // mark
			slot, r := x.Find(k)
			if m == nil {
				slots := len(x.table)
				r = x.Insert(k, slot)
				if len(x.table) > slots {
					st.grows++
				}
				want := made
				if len(free) > 0 {
					want, free = free[len(free)-1], free[:len(free)-1]
					st.reuses++
				} else {
					made++
				}
				if r != want {
					t.Fatalf("n=%d: key %#x inserted at record %d, model says %d", n, k, r, want)
				}
				if *x.Val(r) != (val{}) || slices.ContainsFunc(x.Set(r), func(w uint64) bool { return w != 0 }) {
					t.Fatalf("n=%d: record %d comes back from the free list not zeroed", n, r)
				}
				m = &modelRec{r: r, set: map[int]bool{}}
				model[k] = m
			}
			w, b := x.Bit(r, node)
			*w |= b
			m.set[node] = true
			m.n++
			x.Val(r).n++
		case op < 12: // remove
			if m != nil {
				j, _ := x.Find(k)
				for ; x.table[j] != 0 && j != x.mask; j++ {
				}
				if j == x.mask && x.table[j] != 0 && x.table[0] != 0 {
					st.wrapRemovals++
				}
				x.Remove(m.r)
				free = append(free, m.r)
				delete(model, k)
			}
		case op < 15:
			check(k)
		default:
			base += 16
		}
		if x.Len() != len(model) || x.Made() != made {
			t.Fatalf("n=%d: %d of %d records held, model says %d of %d", n, x.Len(), x.Made(), len(model), made)
		}
		if ops++; ops%64 == 0 {
			audit()
		}
	}
	audit()
	for k := range model {
		check(k)
	}
	for _, k := range wrapKeys {
		check(k)
	}
	return st
}

// The index answers as the map model does, at one set word (50 nodes)
// and several (130 and 500), over enough keys to fill chunks, double
// the table several times, and remove and reuse records in colliding,
// wrapping probe runs.
func TestIndexMatchesMapModel(t *testing.T) {
	for _, n := range []int{50, 130, 500} {
		rng := rand.New(rand.NewSource(int64(n)))
		ops := 0
		st := indexModelRun(t, n, func(k int) (int, bool) {
			ops++
			return rng.Intn(k), ops < 60000
		})
		if st.grows < 4 || st.wrapRemovals == 0 || st.reuses == 0 {
			t.Fatalf("n=%d: %+v; want the table doubled several times, removals across the wrap and records reused", n, st)
		}
		t.Logf("n=%d: %+v", n, st)
	}
}

func FuzzIndex(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 40, 5, 6, 7, 8, 9, 50, 11, 60, 3, 4, 63, 0, 0, 0, 0})
	f.Add(bytes.Repeat([]byte{2, 42, 7, 3, 0, 1, 33, 0, 2, 5, 0, 36, 9, 9, 9, 0}, 16))
	long := make([]byte, 4096)
	rand.New(rand.NewSource(50)).Read(long)
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		// The first byte picks the network: one word, a word's edge, or
		// several words.
		sizes := []int{1, 50, 64, 65, 130, 500}
		n := sizes[int(data[0])%len(sizes)]
		data = data[1:]
		indexModelRun(t, n, func(k int) (int, bool) {
			if len(data) < 2 {
				return 0, false
			}
			v := int(data[0]) | int(data[1])<<8
			data = data[2:]
			return v % k, true
		})
	})
}

// TestIndexRemovalKeepsProbeRunsIntact removes the front of a run of
// colliding keys that wraps round the table's end: the keys behind it
// must stay reachable (backward shift across the wrap), the freed
// record must come back all-zero, and the key that reuses it must not
// inherit anyone's bit.
func TestIndexRemovalKeepsProbeRunsIntact(t *testing.T) {
	x := Make[val](3)
	var keys []uint64
	for k := uint64(1); len(keys) < 4; k++ {
		if hash(k)&x.mask == x.mask {
			keys = append(keys, k)
		}
	}
	mark := func(node int, k uint64) int32 {
		slot, r := x.Find(k)
		if r < 0 {
			r = x.Insert(k, slot)
			x.Val(r).n = 7
		}
		w, b := x.Bit(r, node)
		*w |= b
		return r
	}
	r0 := mark(0, keys[0])
	mark(1, keys[0])
	mark(0, keys[1])
	mark(0, keys[2])
	if slot, _ := x.Find(keys[2]); slot != 1 {
		t.Fatalf("the third colliding key sits at slot %d, want 1: the run does not wrap", slot)
	}
	x.Remove(r0)
	if x.Len() != 2 || len(x.free) != 1 {
		t.Fatalf("%d records in the table, %d free; want 2 and 1", x.Len(), len(x.free))
	}
	for _, k := range keys[1:3] {
		if _, r := x.Find(k); r < 0 || !x.Has(r, 0) {
			t.Fatalf("removing the head of a wrapped probe run lost key %#x behind it", k)
		}
	}
	if slot, _ := x.Find(keys[2]); slot != 0 {
		t.Fatalf("the last key of the run stayed at slot %d; backward shift should move it to 0", slot)
	}
	x.Audit(func(rule, detail string) { t.Errorf("audit: %s: %s", rule, detail) })
	// keys[3] reuses the freed record: node 2 marks it, nobody else did.
	slot, r := x.Find(keys[3])
	if r >= 0 {
		t.Fatal("new key already present")
	}
	if r = x.Insert(keys[3], slot); r != r0 || len(x.free) != 0 {
		t.Fatalf("new key took record %d, want the freed %d", r, r0)
	}
	if *x.Val(r) != (val{}) || x.Has(r, 0) || x.Has(r, 1) {
		t.Fatal("ghost hit: a reused record kept the value or bits of its previous key")
	}
	if _, r := x.Find(keys[0]); r >= 0 {
		t.Fatal("ghost hit: the removed key answers from the reused record")
	}
	x.Audit(func(rule, detail string) { t.Errorf("audit: %s: %s", rule, detail) })
}

// TestIndexAuditDetectsCorruption breaks the table or the free list
// once per way the table-reach rule names, and requires Audit to report
// it.
func TestIndexAuditDetectsCorruption(t *testing.T) {
	build := func() *Index[val] {
		x := Make[val](70)
		for k := uint64(1); k <= 6; k++ {
			slot, _ := x.Find(k)
			x.Val(x.Insert(k, slot)).n = int32(k)
		}
		_, r := x.Find(3)
		x.Remove(r)
		x.Audit(func(rule, detail string) { t.Fatalf("clean index: %s: %s", rule, detail) })
		return &x
	}
	freed := int32(2) // key 3's record
	for _, tc := range []struct {
		name    string
		corrupt func(x *Index[val])
	}{
		{"slot cleared", func(x *Index[val]) { slot, _ := x.Find(4); x.table[slot] = 0 }},
		{"slot names a free record", func(x *Index[val]) { slot, _ := x.Find(4); x.table[slot] = freed + 1 }},
		{"slot names an unmade record", func(x *Index[val]) { slot, _ := x.Find(4); x.table[slot] = x.made + 1 }},
		{"slot names a record past the chunks", func(x *Index[val]) { slot, _ := x.Find(4); x.table[slot] = 1000 }},
		{"free record listed twice", func(x *Index[val]) { x.free = append(x.free, freed) }},
		{"free record keeps its key", func(x *Index[val]) { x.chunks[0].data[x.offset(freed)] = 3 }},
		{"free record keeps a bit", func(x *Index[val]) { x.Set(freed)[1] = 1 }},
		{"free record keeps its value", func(x *Index[val]) { x.Val(freed).n = 3 }},
		{"count drifts", func(x *Index[val]) { x.n++ }},
	} {
		x := build()
		tc.corrupt(x)
		var details []string
		x.Audit(func(rule, detail string) {
			if rule != "table-reach" {
				t.Errorf("%s: rule %q, want table-reach", tc.name, rule)
			}
			details = append(details, detail)
		})
		if len(details) == 0 {
			t.Errorf("%s: not reported", tc.name)
		}
		t.Logf("%s: %s", tc.name, strings.Join(details, "; "))
	}
}

// An index of M records holds ⌈M/chunkLen⌉ chunks, filled in record
// order, and the smallest table of at least 16 slots that M fill at most
// half: records cost chunks, not allocations of their own, and the table
// doubles only while it would be more than half full.
func TestIndexChunksAndTableSize(t *testing.T) {
	for _, m := range []int{0, 1, 8, 9, chunkLen - 1, chunkLen, chunkLen + 1, 3000} {
		x := Make[struct{}](150)
		for k := range uint64(m) {
			slot, _ := x.Find(k + 1)
			x.Insert(k+1, slot)
		}
		if chunks := (m + chunkLen - 1) / chunkLen; len(x.chunks) != chunks {
			t.Errorf("%d records made %d chunks, want %d", m, len(x.chunks), chunks)
		}
		slots := 16
		for slots < 2*m {
			slots *= 2
		}
		if len(x.table) != slots {
			t.Errorf("%d records in a table of %d slots, want %d", m, len(x.table), slots)
		}
	}
}

// Auditing an index no larger than at the last audit allocates nothing.
func TestIndexAuditReusesScratch(t *testing.T) {
	x := Make[val](150)
	for k := uint64(1); k <= 600; k++ {
		slot, _ := x.Find(k)
		x.Insert(k, slot)
	}
	report := func(rule, detail string) { t.Fatalf("audit: %s: %s", rule, detail) }
	x.Audit(report)
	if allocs := testing.AllocsPerRun(10, func() { x.Audit(report) }); allocs != 0 {
		t.Errorf("a repeated audit allocates %.1f objects, want 0", allocs)
	}
}
