// Package checkpoint implements the on-disk container behind
// replication-granular checkpointing (DESIGN.md §11).
//
// The container is deliberately dumb: a versioned, length-prefixed
// binary envelope holding one caller-defined JSON header plus named,
// CRC-guarded opaque sections. All simulation-specific knowledge (what
// the header means, how sections are encoded) lives in the root
// manetp2p package; this file only guarantees that what was written is
// what is read back — or a descriptive error.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// Magic identifies a checkpoint file; Version is bumped on any layout
// change. A reader refuses files whose version it does not know instead
// of guessing: a resumed run built from misread state would silently
// diverge, which is the one failure mode this subsystem exists to
// prevent.
const (
	Magic   = "MP2PCKP1"
	Version = 1
)

// File is one decoded checkpoint: a JSON header plus named payloads.
type File struct {
	Header   json.RawMessage
	Sections map[string][]byte
}

// maxSane bounds every length prefix read from disk (1 GiB): a corrupt
// prefix must produce an error, not an allocation the size of the
// corruption.
const maxSane = 1 << 30

// minSection is the least a section occupies — name length (4), data
// length (8), CRC (4) — and so bounds the section count a file can back,
// which is checked before the count sizes an allocation.
const minSection = 16

// Write atomically writes f to path: the bytes go to a temporary file
// in the same directory which is renamed over path only after a
// successful flush, so an interrupted writer leaves either the old
// checkpoint or the new one, never a torn hybrid.
func Write(path string, f *File) error {
	data, err := encode(f)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	tmpName := tmp.Name()
	_, werr := tmp.Write(data)
	if serr := tmp.Sync(); werr == nil {
		werr = serr
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: writing %s: %w", path, werr)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// encode renders f in the container layout, sections in ascending name
// order: one File has one encoding.
func encode(f *File) ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString(Magic)
	writeU32(&buf, Version)
	if !json.Valid(f.Header) {
		return nil, fmt.Errorf("checkpoint: header is not valid JSON")
	}
	writeU32(&buf, uint32(len(f.Header)))
	buf.Write(f.Header)

	names := make([]string, 0, len(f.Sections))
	for name := range f.Sections { // sorted below: byte-stable files
		names = append(names, name)
	}
	sort.Strings(names)
	writeU32(&buf, uint32(len(names)))
	for _, name := range names {
		data := f.Sections[name]
		writeU32(&buf, uint32(len(name)))
		buf.WriteString(name)
		writeU64(&buf, uint64(len(data)))
		buf.Write(data)
		writeU32(&buf, crc32.ChecksumIEEE(data))
	}
	return buf.Bytes(), nil
}

// Read decodes and fully verifies the checkpoint at path.
func Read(path string) (*File, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return (&reader{buf: raw, path: path}).file()
}

// reader walks the buffer with bounds-checked, error-accumulating reads.
type reader struct {
	buf  []byte
	path string
	off  int
}

func (r *reader) fail(format string, args ...any) error {
	return fmt.Errorf("checkpoint: %s: %s (offset %d)", r.path, fmt.Sprintf(format, args...), r.off)
}

func (r *reader) take(n int) ([]byte, error) {
	if n < 0 || n > maxSane {
		return nil, r.fail("implausible length %d", n)
	}
	if r.off+n > len(r.buf) {
		return nil, fmt.Errorf("checkpoint: %s: truncated file: %w", r.path, io.ErrUnexpectedEOF)
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *reader) u32() (uint32, error) {
	b, err := r.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (r *reader) u64() (uint64, error) {
	b, err := r.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (r *reader) file() (*File, error) {
	magic, err := r.take(len(Magic))
	if err != nil {
		return nil, err
	}
	if string(magic) != Magic {
		return nil, r.fail("not a checkpoint file (magic %q)", magic)
	}
	ver, err := r.u32()
	if err != nil {
		return nil, err
	}
	if ver != Version {
		return nil, r.fail("unsupported checkpoint version %d (this build reads %d)", ver, Version)
	}
	hlen, err := r.u32()
	if err != nil {
		return nil, err
	}
	header, err := r.take(int(hlen))
	if err != nil {
		return nil, err
	}
	if !json.Valid(header) {
		return nil, r.fail("header is not valid JSON")
	}
	f := &File{Header: append(json.RawMessage(nil), header...)}
	nsec, err := r.u32()
	if err != nil {
		return nil, err
	}
	if rest := len(r.buf) - r.off; uint64(nsec)*minSection > uint64(rest) {
		return nil, r.fail("section count %d exceeds what the remaining %d bytes can hold", nsec, rest)
	}
	f.Sections = make(map[string][]byte, nsec)
	prev := ""
	for i := uint32(0); i < nsec; i++ {
		nlen, err := r.u32()
		if err != nil {
			return nil, err
		}
		nameB, err := r.take(int(nlen))
		if err != nil {
			return nil, err
		}
		name := string(nameB)
		dlen, err := r.u64()
		if err != nil {
			return nil, err
		}
		data, err := r.take(int(dlen))
		if err != nil {
			return nil, err
		}
		sum, err := r.u32()
		if err != nil {
			return nil, err
		}
		if got := crc32.ChecksumIEEE(data); got != sum {
			return nil, r.fail("section %q fails its CRC (stored %08x, computed %08x)", name, sum, got)
		}
		// Write emits each name once, ascending; holding the reader to
		// that keeps one encoding per File and rules out duplicates.
		if i > 0 && name <= prev {
			return nil, r.fail("section %q duplicated or out of order (follows %q)", name, prev)
		}
		prev = name
		f.Sections[name] = append([]byte(nil), data...)
	}
	if r.off != len(r.buf) {
		return nil, r.fail("%d trailing bytes after the last section", len(r.buf)-r.off)
	}
	return f, nil
}

func writeU32(buf *bytes.Buffer, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	buf.Write(b[:])
}

func writeU64(buf *bytes.Buffer, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	buf.Write(b[:])
}
