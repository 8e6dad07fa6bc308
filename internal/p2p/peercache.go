package p2p

// This file implements the peer-cache optimization (an extension beyond
// the paper): servents remember peers they have successfully talked to
// and, when a connection slot opens, first try a *unicast* solicitation
// toward a cached peer before paying for a discovery broadcast. In a
// network where the same nodes drift in and out of MAXDIST range, most
// reconfigurations can reuse a known address — the ablation bench
// quantifies the saved connect traffic.

import "manetp2p/internal/sim"

// PeerCacheConfig tunes the optimization. Disabled by default: the
// paper's algorithms always broadcast.
type PeerCacheConfig struct {
	Enabled bool
	Size    int      // max remembered peers (default 8)
	TTL     sim.Time // cache entry lifetime (default 300 s)
	Tries   int      // direct solicitations per cycle step (default 2)
}

// WithDefaults returns the configuration with unset fields resolved to
// their defaults — the effective values a servent runs with. The
// invariant checker uses it to validate the cache cap.
func (c PeerCacheConfig) WithDefaults() PeerCacheConfig { return c.withDefaults() }

func (c PeerCacheConfig) withDefaults() PeerCacheConfig {
	if c.Size <= 0 {
		c.Size = 8
	}
	if c.TTL <= 0 {
		c.TTL = 300 * sim.Second
	}
	if c.Tries <= 0 {
		c.Tries = 2
	}
	return c
}

// cacheEntry is one remembered peer.
type cacheEntry struct {
	seen     sim.Time // last positive contact
	tried    sim.Time // last direct solicitation
	hasTried bool     // tried is meaningful; t=0 is a legal try time
}

// rememberPeer records positive contact with a peer.
func (sv *Servent) rememberPeer(peer int) {
	if !sv.par.PeerCache.Enabled || peer == sv.id {
		return
	}
	if sv.peerCache == nil {
		sv.peerCache = make(map[int]*cacheEntry)
	}
	if e, ok := sv.peerCache[peer]; ok {
		e.seen = sv.s.Now()
		return
	}
	if len(sv.peerCache) >= sv.par.PeerCache.Size {
		// Evict the stalest entry. Equal seen-times (two pongs in the same
		// tick) break by ascending peer id: if map-iteration order picked
		// the victim, a resumed run could evict a different peer than the
		// uninterrupted one and the overlays would silently diverge.
		worst, worstSeen := -1, sim.MaxTime
		for p, e := range sv.peerCache { // commutative: min-reduction, id tie-break
			if e.seen < worstSeen || (e.seen == worstSeen && (worst < 0 || p < worst)) {
				worst, worstSeen = p, e.seen
			}
		}
		if worst >= 0 {
			delete(sv.peerCache, worst)
		}
	}
	sv.peerCache[peer] = &cacheEntry{seen: sv.s.Now()}
}

// tryCachedPeers sends direct (unicast) solicitations to up to Tries
// fresh cached peers and reports whether any was sent — in which case
// the caller skips this step's broadcast.
func (sv *Servent) tryCachedPeers() bool {
	cfg := sv.par.PeerCache
	if !cfg.Enabled || len(sv.peerCache) == 0 {
		return false
	}
	now := sv.s.Now()
	sent := 0
	// Deterministic order: ascending peer id.
	for _, peer := range sv.cachedPeerIDs() {
		if sent >= cfg.Tries {
			break
		}
		e := sv.peerCache[peer]
		if now-e.seen > cfg.TTL {
			delete(sv.peerCache, peer)
			continue
		}
		if e.hasTried && now-e.tried < cfg.TTL/4 {
			continue // recently tried; let it rest
		}
		if sv.engaged(peer) {
			continue
		}
		e.tried = now
		e.hasTried = true
		sv.send(peer, Msg{Kind: msgSolicit})
		sent++
	}
	return sent > 0
}

// cachedPeerIDs returns cache keys in ascending order. The returned
// slice aliases a scratch buffer on the servent — it runs every cycle
// step on the establishment hot path and must not allocate.
func (sv *Servent) cachedPeerIDs() []int {
	ids := sv.cacheScratch[:0]
	for p := range sv.peerCache { // sorted below: keeps runs reproducible
		ids = append(ids, p)
	}
	for i := 1; i < len(ids); i++ { // insertion sort: tiny slices
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	sv.cacheScratch = ids
	return ids
}
