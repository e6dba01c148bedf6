package store

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/folder"
)

// writeCabinet writes cab's image to path via WriteFileAtomic.
func writeCabinet(path string, cab *folder.FileCabinet) error {
	return WriteFileAtomic(path, true, func(w io.Writer) error { return cab.Flush(w) })
}

// loadCabinet reads a cabinet image written by writeCabinet.
func loadCabinet(t *testing.T, path string) *folder.FileCabinet {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cab := folder.NewCabinet()
	if err := cab.Load(f); err != nil {
		t.Fatal(err)
	}
	return cab
}

// noTempResidue fails the test if an atomic write left its temp file.
func noTempResidue(t *testing.T, path string) {
	t.Helper()
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
}

// TestWriteFileAtomicRoundTrip: a cabinet image written atomically leaves
// no temp residue and loads back with every folder intact.
func TestWriteFileAtomicRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cabinet.bin")
	cab := folder.NewCabinet()
	cab.AppendString("MBOX:alice", "a message")
	cab.AppendString("VISITED", "roamer-1")
	if err := writeCabinet(path, cab); err != nil {
		t.Fatal(err)
	}
	noTempResidue(t, path)

	got := loadCabinet(t, path)
	if !got.ContainsString("MBOX:alice", "a message") {
		t.Fatal("mailbox lost across write/load")
	}
	if !got.ContainsString("VISITED", "roamer-1") {
		t.Fatal("visit marks lost across write/load")
	}
}

// TestWriteFileAtomicFsyncPath pins the atomic-write discipline WAL
// snapshots and the replica rely on: a write leaves no temp residue, a
// second write renames over the first, and a failing write callback
// leaves the old file intact and removes its temp file.
func TestWriteFileAtomicFsyncPath(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cabinet.bin")
	cab := folder.NewCabinet()
	cab.AppendString("K", "v")
	if err := writeCabinet(path, cab); err != nil {
		t.Fatal(err)
	}
	noTempResidue(t, path)

	// Rename over an existing file.
	cab.AppendString("K", "v2")
	if err := writeCabinet(path, cab); err != nil {
		t.Fatal(err)
	}
	noTempResidue(t, path)
	if n := loadCabinet(t, path).FolderLen("K"); n != 2 {
		t.Fatalf("overwritten image has K of %d elements, want 2", n)
	}

	// A failing write callback leaves the previous file byte-identical.
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err = WriteFileAtomic(path, true, func(w io.Writer) error {
		w.Write([]byte("partial garbage"))
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the callback's error", err)
	}
	noTempResidue(t, path)
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("failed write changed the existing file")
	}
}
