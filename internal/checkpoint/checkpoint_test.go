package checkpoint

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func sampleFile() *File {
	return &File{
		Header: json.RawMessage(`{"kind":"test","n":3}`),
		Sections: map[string][]byte{
			"rep/0": []byte("alpha"),
			"rep/1": []byte("beta payload"),
			"empty": nil,
		},
	}
}

func TestContainerRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.ckpt")
	want := sampleFile()
	if err := Write(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Header) != string(want.Header) {
		t.Errorf("header = %s, want %s", got.Header, want.Header)
	}
	if len(got.Sections) != len(want.Sections) {
		t.Fatalf("got %d sections, want %d", len(got.Sections), len(want.Sections))
	}
	for name, data := range want.Sections {
		if string(got.Sections[name]) != string(data) {
			t.Errorf("section %q = %q, want %q", name, got.Sections[name], data)
		}
	}
}

func TestWriteIsByteStable(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a"), filepath.Join(dir, "b")
	if err := Write(a, sampleFile()); err != nil {
		t.Fatal(err)
	}
	if err := Write(b, sampleFile()); err != nil {
		t.Fatal(err)
	}
	ba, _ := os.ReadFile(a)
	bb, _ := os.ReadFile(b)
	if string(ba) != string(bb) {
		t.Error("two writes of the same File differ on disk")
	}
}

// corruption is one way to damage an encoded sampleFile and the error
// Read must answer it with.
type corruption struct {
	name string
	data []byte
	want string
}

func corruptions(t testing.TB) []corruption {
	raw, err := encode(sampleFile())
	if err != nil {
		t.Fatal(err)
	}
	idx := bytes.Index(raw, []byte("beta"))
	if idx < 0 {
		t.Fatal("payload not found in encoded file")
	}
	mutated := func(mutate func([]byte) []byte) []byte {
		return mutate(append([]byte(nil), raw...))
	}
	// Magic, version, a 2-byte "{}" header and a section count of 2^32-1:
	// 22 bytes that once sized a four-billion-entry map.
	bomb := append([]byte(Magic), 1, 0, 0, 0, 2, 0, 0, 0, '{', '}', 0xFF, 0xFF, 0xFF, 0xFF)
	// Two well-formed sections, second name not after the first.
	section := func(name string) []byte {
		b := []byte{byte(len(name)), 0, 0, 0}
		b = append(b, name...)
		return append(b, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0) // no data, CRC 0
	}
	twoSections := func(first, second string) []byte {
		b := append(append([]byte(nil), bomb[:18]...), 2, 0, 0, 0)
		return append(append(b, section(first)...), section(second)...)
	}
	return []corruption{
		{"flipped payload byte", mutated(func(b []byte) []byte { b[idx] ^= 0xff; return b }), "CRC"},
		{"bad magic", mutated(func(b []byte) []byte { b[0] = 'X'; return b }), "not a checkpoint"},
		{"truncated", mutated(func(b []byte) []byte { return b[:len(b)-3] }), "truncated"},
		{"trailing garbage", mutated(func(b []byte) []byte { return append(b, 0xEE) }), "trailing"},
		{"future version", mutated(func(b []byte) []byte { b[len(Magic)] = 99; return b }), "version"},
		{"section count bomb", bomb, "section count"},
		{"duplicate section", twoSections("a", "a"), "duplicated or out of order"},
		{"unsorted sections", twoSections("b", "a"), "duplicated or out of order"},
	}
}

func TestReadRejectsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.ckpt")
	for _, tc := range corruptions(t) {
		if err := os.WriteFile(path, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, rerr := Read(path)
		if rerr == nil || !strings.Contains(rerr.Error(), tc.want) {
			t.Errorf("%s: Read err = %v, want mention of %q", tc.name, rerr, tc.want)
		}
	}
}

// FuzzRead: whatever the bytes, Read returns an error or a File whose
// encoding is exactly those bytes — it never panics, and never sizes an
// allocation from a length the input cannot back (a fuzz worker that
// does dies of it).
func FuzzRead(f *testing.F) {
	valid, err := encode(sampleFile())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	for _, tc := range corruptions(f) {
		f.Add(tc.data)
	}
	path := filepath.Join(f.TempDir(), "fuzz.ckpt")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		file, err := Read(path)
		if err != nil {
			return
		}
		if n, most := len(file.Sections), len(data)/minSection; n > most {
			t.Fatalf("%d sections out of %d bytes", n, len(data))
		}
		again, err := encode(file)
		if err != nil {
			t.Fatalf("Read accepted a File that does not encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted file re-encodes differently:\n in: %x\nout: %x", data, again)
		}
	})
}

func TestWriteRejectsInvalidHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.ckpt")
	err := Write(path, &File{Header: json.RawMessage(`{broken`)})
	if err == nil || !strings.Contains(err.Error(), "JSON") {
		t.Errorf("Write err = %v, want invalid-JSON error", err)
	}
	if _, statErr := os.Stat(path); !os.IsNotExist(statErr) {
		t.Error("failed Write left a file behind")
	}
}
