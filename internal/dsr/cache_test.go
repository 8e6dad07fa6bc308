package dsr

import (
	"math/rand"
	"slices"
	"testing"

	"manetp2p/internal/geom"
	"manetp2p/internal/netif"
	"manetp2p/internal/radio"
	"manetp2p/internal/route"
	"manetp2p/internal/sim"
)

// refCache is the route cache kept the simple way, a map from destination
// to a freshly allocated copy of its path: the reference the id-indexed
// cache, which rewrites its paths in place, is held to.
type refCache struct {
	self     int
	lifetime sim.Time
	m        map[int]refRoute
}

type refRoute struct {
	path    []int
	expires sim.Time
}

func (c *refCache) route(dst int, now sim.Time) ([]int, bool) {
	cr, ok := c.m[dst]
	if !ok || cr.expires < now {
		return nil, false
	}
	return cr.path, true
}

func (c *refCache) learn(dst int, path []int, now sim.Time) {
	if dst == c.self {
		return
	}
	for _, h := range path {
		if h == c.self || h == dst {
			return
		}
	}
	if old, ok := c.m[dst]; ok && old.expires >= now && len(old.path) < len(path) {
		return
	}
	cp := append([]int(nil), path...)
	c.m[dst] = refRoute{path: cp, expires: now + c.lifetime}
	for i, h := range cp {
		if old, ok := c.m[h]; ok && old.expires >= now && len(old.path) <= i {
			continue
		}
		c.m[h] = refRoute{path: append([]int(nil), cp[:i]...), expires: now + c.lifetime}
	}
}

func (c *refCache) dropVia(a, b int) {
	var doomed []int
	for dst, cr := range c.m { // commutative: only collects
		full := append(append([]int{c.self}, cr.path...), dst)
		for i := 0; i+1 < len(full); i++ {
			if full[i] == a && full[i+1] == b {
				doomed = append(doomed, dst)
				break
			}
		}
	}
	for _, dst := range doomed {
		delete(c.m, dst)
	}
}

// handedPath is a path route handed out, with the bytes it held then,
// and the holder's extension of it, ending in the holder's own mark.
type handedPath struct {
	path, want, ext []int
	mark            int
}

// TestRouteCacheMatchesMapModel drives one router's cache and refCache
// through a seeded interleaving of route learning (new, repeated and
// looping paths, from a buffer overwritten after each call as reversed
// does), link breaks, forward's eviction of a route whose next hop is
// gone, and clock advances landing on, one tick before and one tick
// after route expiries. After every step route and HopsTo agree with the
// model for every node id. Every path route hands out is extended by its
// holder, as a relay extends a received path, and must keep its bytes
// until the router next learns a route, the one call that rewrites path
// storage; neither the extension nor a drop or an eviction may change
// the cache or another handed path. (A frame in flight owns a copy:
// TestDSRFrameKeepsItsRouteAcrossRelearn.)
func TestRouteCacheMatchesMapModel(t *testing.T) {
	const nodes, self, steps = 10, 3, 20000
	s := sim.New(1)
	med, err := radio.NewMedium(s, radio.Config{Arena: geom.Rect{W: 100, H: 100}, Range: 10, NumNodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	// No node joins the medium, so every link is down: forward always
	// finds its next hop out of range.
	r := NewRouter(self, route.NewPlane(s, med), DefaultConfig())
	ref := &refCache{self: self, lifetime: r.cfg.RouteLifetime, m: map[int]refRoute{}}
	rng := rand.New(rand.NewSource(35))
	var handed []handedPath
	buf := make([]int, 0, nodes)
	for step := 0; step < steps; step++ {
		now := s.Now()
		switch k := rng.Intn(12); {
		case k < 5: // a fresh path, sometimes looping through self or dst
			handed = handed[:0]
			perm := rng.Perm(nodes)
			dst := perm[0]
			buf = append(buf[:0], perm[1:1+rng.Intn(6)]...)
			if len(buf) > 0 && rng.Intn(8) == 0 {
				buf[rng.Intn(len(buf))] = []int{self, dst}[rng.Intn(2)]
			}
			r.learnRoute(dst, buf)
			ref.learn(dst, buf, now)
		case k < 7: // a path the cache already holds, or one of its suffixes
			dst := rng.Intn(nodes)
			cr, ok := ref.m[dst]
			if !ok {
				continue
			}
			handed = handed[:0]
			buf = append(buf[:0], cr.path[rng.Intn(len(cr.path)+1):]...)
			r.learnRoute(dst, buf)
			ref.learn(dst, buf, now)
		case k < 9: // a link break reported
			a, b := rng.Intn(nodes), rng.Intn(nodes)
			r.dropRoutesVia(a, b)
			ref.dropVia(a, b)
		case k < 10: // forward finds the next hop gone
			dst := rng.Intn(nodes)
			if dst == self {
				continue
			}
			pkt := netif.Packet{Kind: netif.PktData, Origin: self, Dst: dst}
			if cr, ok := r.route(dst); ok {
				pkt.Path = cr.path
			}
			next := dst
			if len(pkt.Path) > 0 {
				next = pkt.Path[0]
			}
			r.forward(pkt)
			r.pending.Take(dst) // the rediscovery forward starts is not modelled
			ref.dropVia(self, next)
			delete(ref.m, dst)
		default: // the clock moves, often onto an expiry
			until := now + sim.Time(1+rng.Int63n(int64(5*sim.Second)))
			if cr, ok := ref.m[rng.Intn(nodes)]; ok && rng.Intn(2) == 0 {
				until = cr.expires + sim.Time(rng.Intn(3)-1)
			}
			if until > now {
				s.Run(until)
			}
		}
		for i := range buf {
			buf[i] = -1 // the caller's buffer is reused: the cache copied
		}

		now = s.Now()
		for dst := 0; dst < nodes; dst++ {
			want, wantOK := ref.route(dst, now)
			cr, ok := r.route(dst)
			hops, hopsOK := r.HopsTo(dst)
			if ok != wantOK || !slices.Equal(cr.path, want) || hopsOK != wantOK || wantOK && hops != len(want)+1 {
				t.Fatalf("step %d: route to %d = %v %v, HopsTo %d %v; model %v %v", step, dst, cr.path, ok, hops, hopsOK, want, wantOK)
			}
			if ok {
				mark := -2 - len(handed)
				handed = append(handed, handedPath{path: cr.path, want: slices.Clone(cr.path), ext: append(cr.path, mark), mark: mark})
			}
		}
		for _, h := range handed {
			if !slices.Equal(h.path, h.want) {
				t.Fatalf("step %d: a path handed out as %v now reads %v", step, h.want, h.path)
			}
			if len(h.ext) != len(h.want)+1 || !slices.Equal(h.ext[:len(h.want)], h.want) || h.ext[len(h.want)] != h.mark {
				t.Fatalf("step %d: a holder's extension of %v now reads %v", step, h.want, h.ext)
			}
		}
	}
}
