package p2p

import (
	"testing"

	"manetp2p/internal/geom"
	"manetp2p/internal/telemetry"
)

// queryWorld builds a clique of servents with NoEstablish and a manual
// overlay, so query mechanics are tested in isolation.
func queryWorld(t *testing.T, seed int64, n int, files [][]bool) *world {
	t.Helper()
	w := newWorld(t, worldSpec{
		seed:  seed,
		pts:   cliquePts(n),
		alg:   Regular,
		files: files,
		opts: func(i int, o *Options) {
			o.NoEstablish = true
			o.NoQueries = true // queries driven manually per test
		},
	})
	w.joinAll()
	return w
}

// fileSets builds holdings: holders[f] lists the servents holding file f.
func fileSets(n, numFiles int, holders map[int][]int) [][]bool {
	files := make([][]bool, n)
	for i := range files {
		files[i] = make([]bool, numFiles)
	}
	for f, hs := range holders {
		for _, h := range hs {
			files[h][f] = true
		}
	}
	return files
}

// chainOverlay links servents 0-1-2-...-n-1.
func chainOverlay(w *world) {
	for i := 0; i+1 < len(w.svs); i++ {
		forceLink(w.svs[i], w.svs[i+1], false)
	}
}

func TestQueryFindsFileAndRecordsDistance(t *testing.T) {
	// Chain 0-1-2-3; file 0 held by node 3 (3 p2p hops from 0). Node 0
	// holds file 1, so the only possible request is file 0.
	w := queryWorld(t, 30, 4, fileSets(4, 2, map[int][]int{0: {3}, 1: {0}}))
	chainOverlay(w)
	w.svs[0].runQuery()
	if w.svs[0].curReq == nil {
		t.Fatal("no request open after runQuery")
	}
	w.run(DefaultParams().QueryCollect + time(5))
	reqs := w.col.Requests()
	if len(reqs) != 1 {
		t.Fatalf("requests recorded = %d, want 1", len(reqs))
	}
	r := reqs[0]
	if !r.Found || r.Answers < 1 {
		t.Fatalf("request = %+v, want found with answers", r)
	}
	if w.svs[0].HasFile(r.File) {
		t.Error("node requested a file it already holds")
	}
}

func TestQueryMinDistanceIsNearestHolder(t *testing.T) {
	// Chain 0-1-2-3-4; file 0 at nodes 2 (2 hops) and 4 (4 hops).
	w := queryWorld(t, 31, 5, fileSets(5, 1, map[int][]int{0: {2, 4}}))
	chainOverlay(w)
	w.svs[0].runQuery()
	w.run(DefaultParams().QueryCollect + time(5))
	reqs := w.col.Requests()
	if len(reqs) != 1 {
		t.Fatalf("requests = %d, want 1", len(reqs))
	}
	r := reqs[0]
	if r.Answers != 2 {
		t.Errorf("answers = %d, want 2 (both holders)", r.Answers)
	}
	if r.MinP2P != 2 {
		t.Errorf("MinP2P = %d, want 2 (nearest holder)", r.MinP2P)
	}
}

func TestQueryTTLBoundsReach(t *testing.T) {
	// Chain of 9; TTL 6 means holders at p2p distance > 6 are invisible.
	par := DefaultParams()
	w := queryWorld(t, 32, 9, fileSets(9, 1, map[int][]int{0: {8}}))
	chainOverlay(w)
	if par.QueryTTL != 6 {
		t.Fatalf("unexpected default TTL %d", par.QueryTTL)
	}
	w.svs[0].runQuery()
	w.run(par.QueryCollect + time(5))
	reqs := w.col.Requests()
	if len(reqs) != 1 || reqs[0].Found {
		t.Errorf("requests = %+v, want one unfound (holder at 8 > TTL 6)", reqs)
	}
}

func TestQueryForwardOnceRule(t *testing.T) {
	// Triangle 0-1, 1-2, 0-2 with an extra chain: each node must process
	// a query exactly once despite multiple arrival paths.
	w := queryWorld(t, 33, 3, fileSets(3, 1, map[int][]int{0: {1, 2}}))
	forceLink(w.svs[0], w.svs[1], false)
	forceLink(w.svs[1], w.svs[2], false)
	forceLink(w.svs[0], w.svs[2], false)
	w.svs[0].runQuery()
	w.run(DefaultParams().QueryCollect + time(5))
	reqs := w.col.Requests()
	if len(reqs) != 1 {
		t.Fatalf("requests = %d, want 1", len(reqs))
	}
	// Each holder answers exactly once ("only responds once").
	if reqs[0].Answers != 2 {
		t.Errorf("answers = %d, want exactly 2 (one per holder, no duplicates)", reqs[0].Answers)
	}
	// Query messages received: node 1 gets it from 0 and (possibly) a
	// forward from 2; forwarding back to the sender is forbidden, so in
	// a triangle each of 1,2 receives at most 2 copies: one from origin,
	// one forwarded by the other — but never echoes back to origin.
	if got := w.col.Received(0, telemetry.Query); got != 0 {
		t.Errorf("origin received %d query copies, want 0 (rule 3)", got)
	}
}

func TestQueryHolderStillForwards(t *testing.T) {
	// Chain 0-1-2; node 1 holds the file and node 2 holds it too: the
	// paper says a holder "processes and forwards the message even if it
	// has the file", so node 2 must also answer.
	w := queryWorld(t, 34, 3, fileSets(3, 1, map[int][]int{0: {1, 2}}))
	chainOverlay(w)
	w.svs[0].runQuery()
	w.run(DefaultParams().QueryCollect + time(5))
	reqs := w.col.Requests()
	if len(reqs) != 1 || reqs[0].Answers != 2 {
		t.Fatalf("requests = %+v, want 2 answers (holder must forward)", reqs)
	}
}

func TestLateAnswersIgnoredAfterWindow(t *testing.T) {
	w := queryWorld(t, 35, 2, fileSets(2, 1, map[int][]int{0: {1}}))
	chainOverlay(w)
	sv := w.svs[0]
	sv.runQuery()
	w.run(DefaultParams().QueryCollect + time(5))
	if n := len(w.col.Requests()); n != 1 {
		t.Fatalf("requests = %d, want 1", n)
	}
	recorded := w.col.Requests()[0].Answers
	// Inject a late hit for the already-closed request.
	sv.onQueryHit(1, Msg{Kind: msgQueryHit, Seq: 1, File: 0, Holder: 1, Hops: 1}, 1)
	if len(w.col.Requests()) != 1 || w.col.Requests()[0].Answers != recorded {
		t.Error("late answer mutated a closed request")
	}
}

func TestQueryLoopSchedulesContinuously(t *testing.T) {
	// With the workload enabled, a servent issues queries repeatedly at
	// the paper's cadence (~30 s collect + 15–45 s gap).
	files := fileSets(2, 4, map[int][]int{0: {0}, 1: {1}})
	w := newWorld(t, worldSpec{
		seed:  36,
		pts:   cliquePts(2),
		alg:   Regular,
		files: files,
	})
	w.joinAll()
	w.run(time(1200))
	perNode := map[int]int{}
	for _, r := range w.col.Requests() {
		perNode[r.Node]++
	}
	// Expected cadence: one request every ~45–75 s → ≥ 10 in 1200 s.
	for i := 0; i < 2; i++ {
		if perNode[i] < 10 {
			t.Errorf("node %d issued %d requests in 1200s, want >= 10", i, perNode[i])
		}
	}
}

func TestPickFileNeverPicksHeld(t *testing.T) {
	w := queryWorld(t, 37, 1, nil)
	sv := w.svs[0]
	sv.opt.Files = []bool{true, false, true, false, true}
	for i := 0; i < 200; i++ {
		f := sv.pickFile()
		if f != 1 && f != 3 {
			t.Fatalf("pickFile = %d, want 1 or 3", f)
		}
	}
	sv.opt.Files = []bool{true, true}
	if f := sv.pickFile(); f != -1 {
		t.Errorf("pickFile with all held = %d, want -1", f)
	}
	sv.opt.Files = nil
	if f := sv.pickFile(); f != -1 {
		t.Errorf("pickFile with no content model = %d, want -1", f)
	}
}

func TestRandomWalkQueryFindsFileOnChain(t *testing.T) {
	// Chain 0-1-2-3: a walker has no choices, so it must reach the
	// holder at the end deterministically.
	par := DefaultParams()
	par.QueryMode = QueryRandomWalk
	par.Walkers = 1
	par.WalkTTL = 8
	w := newWorld(t, worldSpec{
		seed:  40,
		pts:   cliquePts(4),
		alg:   Regular,
		par:   par,
		files: fileSets(4, 2, map[int][]int{0: {3}, 1: {0}}),
		opts: func(i int, o *Options) {
			o.NoEstablish = true
			o.NoQueries = true
		},
	})
	w.joinAll()
	chainOverlay(w)
	w.svs[0].runQuery()
	w.run(par.QueryCollect + time(5))
	reqs := w.col.Requests()
	if len(reqs) != 1 || !reqs[0].Found {
		t.Fatalf("requests = %+v, want found via random walk", reqs)
	}
	if reqs[0].MinP2P != 3 {
		t.Errorf("MinP2P = %d, want 3", reqs[0].MinP2P)
	}
}

func TestRandomWalkAnswersAtMostOnce(t *testing.T) {
	// Triangle with long TTL: walkers revisit nodes, but each holder
	// answers exactly once.
	par := DefaultParams()
	par.QueryMode = QueryRandomWalk
	par.Walkers = 1
	par.WalkTTL = 30
	w := newWorld(t, worldSpec{
		seed:  41,
		pts:   cliquePts(3),
		alg:   Regular,
		par:   par,
		files: fileSets(3, 2, map[int][]int{0: {1, 2}, 1: {0}}),
		opts: func(i int, o *Options) {
			o.NoEstablish = true
			o.NoQueries = true
		},
	})
	w.joinAll()
	forceLink(w.svs[0], w.svs[1], false)
	forceLink(w.svs[1], w.svs[2], false)
	forceLink(w.svs[0], w.svs[2], false)
	w.svs[0].runQuery()
	w.run(par.QueryCollect + time(5))
	reqs := w.col.Requests()
	if len(reqs) != 1 {
		t.Fatalf("requests = %d, want 1", len(reqs))
	}
	if reqs[0].Answers != 2 {
		t.Errorf("answers = %d, want exactly 2 despite 30-hop revisiting walker", reqs[0].Answers)
	}
}

func TestRandomWalkCheaperThanFloodInClique(t *testing.T) {
	// A 12-clique: flooding one query touches everyone; two walkers of
	// TTL 16 send at most 32 messages but a flood with TTL 6 on a
	// complete graph costs ~n per node. Compare total query messages.
	runMode := func(mode QueryMode) uint64 {
		par := DefaultParams()
		par.QueryMode = mode
		w := newWorld(t, worldSpec{
			seed:  42,
			pts:   cliquePts(12),
			alg:   Regular,
			par:   par,
			files: fileSets(12, 2, map[int][]int{0: {11}, 1: {0}}),
			opts: func(i int, o *Options) {
				o.NoEstablish = true
				o.NoQueries = true
			},
		})
		w.joinAll()
		// Full mesh overlay.
		for i := 0; i < 12; i++ {
			for j := i + 1; j < 12; j++ {
				forceLink(w.svs[i], w.svs[j], false)
			}
		}
		w.svs[0].runQuery()
		w.run(par.QueryCollect + time(5))
		var total uint64
		for i := 0; i < 12; i++ {
			total += w.col.Received(i, telemetry.Query)
		}
		return total
	}
	flood := runMode(QueryFlood)
	walk := runMode(QueryRandomWalk)
	if walk >= flood {
		t.Errorf("random walk cost %d >= flood cost %d; walkers must be cheaper on dense overlays", walk, flood)
	}
}

func TestQueryModeValidation(t *testing.T) {
	p := DefaultParams()
	p.QueryMode = QueryRandomWalk
	p.Walkers = 0
	if err := p.Validate(); err == nil {
		t.Error("walkers=0 accepted")
	}
	p = DefaultParams()
	p.QueryMode = QueryRandomWalk
	p.WalkTTL = 0
	if err := p.Validate(); err == nil {
		t.Error("walkTTL=0 accepted")
	}
	if QueryFlood.String() != "flood" || QueryRandomWalk.String() != "randomwalk" {
		t.Error("QueryMode names wrong")
	}
}

func TestQueryMessagesCounted(t *testing.T) {
	w := queryWorld(t, 38, 3, fileSets(3, 1, map[int][]int{0: {2}}))
	chainOverlay(w)
	w.svs[0].runQuery()
	w.run(DefaultParams().QueryCollect + time(5))
	if got := w.col.Received(1, telemetry.Query); got != 1 {
		t.Errorf("relay received %d query messages, want 1", got)
	}
	if got := w.col.Received(2, telemetry.Query); got != 1 {
		t.Errorf("holder received %d query messages, want 1", got)
	}
	if got := w.col.Received(0, telemetry.QueryHit); got != 1 {
		t.Errorf("origin received %d hits, want 1", got)
	}
}

// A query issued and closed with no tracer allocates only its request
// record: the trace calls on the path box nothing when the tracer is
// nil, even for qids past the 0–255 range Go keeps preboxed.
func TestQueryPathNilTracerAllocs(t *testing.T) {
	const nodes = 4
	par := DefaultParams()
	par.PingInterval = 1 << 55
	pts := make([]geom.Point, nodes)
	for n := range pts {
		pts[n] = geom.Point{X: 5 + 8*float64(n), Y: 25}
	}
	s, svs, _ := benchOverlay(t, 13, geom.Rect{W: 200, H: 50}, pts, par,
		func(int) []bool { return []bool{false} }) // nobody holds file 0: no answer, no download
	sv := svs[0]
	sv.opt.Collector = nil // Record's slice growth is not the query path's
	sv.nextQID = 1000
	query := func() {
		sv.runQuery()
		s.Run(s.Now() + par.QueryCollect) // finishQuery closes the window
		sv.queryEv.Cancel()               // and the test issues the next query
		for _, x := range svs {
			clear(x.seen)
		}
	}
	for i := 0; i < 64; i++ { // warm the event pool, maps and caches
		query()
	}
	if allocs := testing.AllocsPerRun(100, query); allocs != 1 {
		t.Errorf("one query allocates %.1f allocs/op, want 1 (its request record)", allocs)
	}
}
