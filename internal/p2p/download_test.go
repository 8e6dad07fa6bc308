package p2p

import (
	"testing"

	"manetp2p/internal/telemetry"
)

// downloadWorld: two adjacent servents with a manual link; node 1 holds
// file 0, node 0 holds file 1 (so it can only request file 0).
func downloadWorld(t *testing.T, seed int64, dl DownloadConfig) *world {
	t.Helper()
	par := DefaultParams()
	par.Download = dl
	w := newWorld(t, worldSpec{
		seed:  seed,
		pts:   cliquePts(2),
		alg:   Regular,
		par:   par,
		files: fileSets(2, 2, map[int][]int{0: {1}, 1: {0}}),
		opts: func(i int, o *Options) {
			o.NoEstablish = true
			o.NoQueries = true
		},
	})
	w.joinAll()
	forceLink(w.svs[0], w.svs[1], false)
	return w
}

func TestDownloadReplicatesFile(t *testing.T) {
	w := downloadWorld(t, 60, DownloadConfig{Enabled: true, FileChunks: 4})
	w.svs[0].runQuery()
	w.run(DefaultParams().QueryCollect + time(30))
	if !w.svs[0].HasFile(0) {
		t.Fatal("requester did not replicate the found file")
	}
	// The transfer moved fetch/chunk messages: one chunk per FileChunks.
	if got := w.col.Received(1, telemetry.Transfer); got < 4 {
		t.Errorf("holder received %d transfer messages, want >= 4 fetch requests", got)
	}
	if got := w.col.Received(0, telemetry.Transfer); got != 4 {
		t.Errorf("requester received %d chunks, want 4", got)
	}
}

func TestDownloadDisabledByDefault(t *testing.T) {
	w := downloadWorld(t, 61, DownloadConfig{})
	w.svs[0].runQuery()
	w.run(DefaultParams().QueryCollect + time(30))
	if w.svs[0].HasFile(0) {
		t.Error("file replicated with downloads disabled")
	}
	if got := w.col.Received(0, telemetry.Transfer) + w.col.Received(1, telemetry.Transfer); got != 0 {
		t.Errorf("transfer traffic %d with downloads disabled", got)
	}
}

func TestDownloadAbortsWhenHolderDies(t *testing.T) {
	w := downloadWorld(t, 62, DownloadConfig{Enabled: true, FileChunks: 8, ChunkWait: time(5)})
	w.svs[0].runQuery()
	// Let the query hit arrive, then kill the holder just BEFORE the
	// collection window closes: the download starts toward a dead node
	// and must stall out.
	w.run(DefaultParams().QueryCollect - time(1))
	w.med.Leave(1)
	w.svs[1].Leave(false)
	w.run(time(61))
	if w.svs[0].HasFile(0) {
		t.Error("file replicated from a dead holder")
	}
	if w.svs[0].xfer != nil {
		t.Error("stalled transfer never aborted")
	}
}

func TestReplicatedFileAnswersLaterQueries(t *testing.T) {
	// Chain 0-1-2: only node 2 holds file 0. Node 1 fetches it; then a
	// query from node 0 must be answered by node 1 as well (2 answers).
	par := DefaultParams()
	par.Download = DownloadConfig{Enabled: true, FileChunks: 2}
	w := newWorld(t, worldSpec{
		seed:  63,
		pts:   cliquePts(3),
		alg:   Regular,
		par:   par,
		files: fileSets(3, 2, map[int][]int{0: {2}, 1: {0, 1}}),
		opts: func(i int, o *Options) {
			o.NoEstablish = true
			o.NoQueries = true
		},
	})
	w.joinAll()
	chainOverlay(w)
	w.svs[1].runQuery() // node 1 requests file 0, gets it from 2, replicates
	w.run(DefaultParams().QueryCollect + time(30))
	if !w.svs[1].HasFile(0) {
		t.Fatal("node 1 did not replicate file 0")
	}
	w.svs[0].runQuery() // node 0 now asks; holders: 1 (1 hop) and 2 (2 hops)
	w.run(DefaultParams().QueryCollect + time(5))
	reqs := w.col.Requests()
	last := reqs[len(reqs)-1]
	if last.Node != 0 || last.Answers != 2 {
		t.Errorf("second request = %+v, want 2 answers (replica + original)", last)
	}
	if last.MinP2P != 1 {
		t.Errorf("MinP2P = %d, want 1 (the replica is closer)", last.MinP2P)
	}
}

func TestFetchReqForUnheldFileIgnored(t *testing.T) {
	w := downloadWorld(t, 64, DownloadConfig{Enabled: true, FileChunks: 2})
	// Node 1 holds file 0 but not file 1.
	w.svs[0].send(1, Msg{Kind: msgFetchReq, File: 1, Chunk: 0})
	w.svs[0].send(1, Msg{Kind: msgFetchReq, File: 0, Chunk: 99}) // out of range
	w.run(time(5))
	if got := w.col.Received(0, telemetry.Transfer); got != 0 {
		t.Errorf("requester received %d chunks for invalid fetches", got)
	}
}
