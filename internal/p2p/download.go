package p2p

// This file implements the optional download/replication extension.
// The paper stops at query hits ("the file properly said, which is
// transferred directly between the peers" — §2), and its simulations
// never move file bytes. With Downloads enabled, a requester whose
// collection window closed with answers picks the nearest holder,
// fetches the file in chunks over the ad-hoc unicast path, and — as in
// real Gnutella — becomes a holder itself, so popular files replicate
// toward demand over the run.

import (
	"manetp2p/internal/sim"
	"manetp2p/internal/trace"
)

// xfer tracks one in-progress download at the requester.
type xfer struct {
	file    int
	holder  int
	next    int // next chunk index expected
	chunks  int // total, learned from the first chunk
	serial  int // stamped from Servent.xferSerial; the stall timeout carries it
	timeout sim.Handle
}

// DownloadConfig tunes the transfer extension.
type DownloadConfig struct {
	Enabled    bool
	FileChunks int      // chunks per file (default 8)
	ChunkWait  sim.Time // per-chunk stall timeout (default 10 s)
}

// downloadDefaults fills zero fields.
func (c DownloadConfig) withDefaults() DownloadConfig {
	if c.FileChunks <= 0 {
		c.FileChunks = 8
	}
	if c.ChunkWait <= 0 {
		c.ChunkWait = 10 * sim.Second
	}
	return c
}

// maybeStartDownload begins a fetch after a successful request if the
// extension is on and we still lack the file.
func (sv *Servent) maybeStartDownload(file, holder int) {
	if !sv.par.Download.Enabled || sv.xfer != nil || sv.HasFile(file) || holder == sv.id {
		return
	}
	sv.xferSerial++
	x := &xfer{file: file, holder: holder, serial: sv.xferSerial}
	sv.xfer = x
	sv.armChunkWait(x)
	sv.opt.Tracer.Emit(trace.KindQuery, sv.id, holder, "download start file=%d", trace.Int(file))
	sv.send(holder, Msg{Kind: msgFetchReq, File: file, Chunk: 0})
}

// armChunkWait (re)arms x's stall timeout.
func (sv *Servent) armChunkWait(x *xfer) {
	x.timeout.Cancel()
	x.timeout = sv.s.ScheduleArg(sv.par.Download.ChunkWait, abortDownload, sim.Arg{I0: x.serial, X: sv})
}

// abortDownload gives up on a stalled transfer.
func abortDownload(a sim.Arg) {
	sv := a.X.(*Servent)
	x := sv.xfer
	if x == nil || x.serial != a.I0 {
		return
	}
	sv.opt.Tracer.Emit(trace.KindQuery, sv.id, x.holder, "download abort file=%d at chunk %d", trace.Int(x.file), trace.Int(x.next))
	sv.xfer = nil
}

// onFetchReq serves one chunk if we hold the file.
func (sv *Servent) onFetchReq(from int, m Msg) {
	if !sv.par.Download.Enabled || !sv.HasFile(m.File) {
		return
	}
	cfg := sv.par.Download
	if m.Chunk < 0 || m.Chunk >= cfg.FileChunks {
		return
	}
	sv.send(from, Msg{Kind: msgChunk, File: m.File, Chunk: m.Chunk, Chunks: cfg.FileChunks})
}

// onChunk advances the requester's transfer; on completion the file is
// installed locally (replication).
func (sv *Servent) onChunk(from int, m Msg) {
	x := sv.xfer
	if x == nil || x.holder != from || x.file != m.File || m.Chunk != x.next {
		return // stale, duplicate or out-of-order chunk
	}
	x.chunks = m.Chunks
	x.next++
	sv.armChunkWait(x)
	if x.next < x.chunks {
		sv.send(from, Msg{Kind: msgFetchReq, File: x.file, Chunk: x.next})
		return
	}
	// Complete: we now hold (and serve) the file.
	x.timeout.Cancel()
	sv.xfer = nil
	if x.file >= 0 && x.file < len(sv.opt.Files) {
		sv.opt.Files[x.file] = true
		sv.opt.Tracer.Emit(trace.KindQuery, sv.id, from, "download done file=%d", trace.Int(x.file))
	}
}
