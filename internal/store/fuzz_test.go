package store

import (
	"bytes"
	"os"
	"testing"

	"repro/internal/folder"
)

// cabImage returns a cabinet's canonical full-contents encoding (encode is
// deterministic, so equal cabinets produce equal images).
func cabImage(tb testing.TB, cab *folder.FileCabinet) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := cab.Flush(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// checkIndexConsistency asserts the cabinet's O(1) membership index agrees
// with the folder contents: every element a folder holds is reported
// present, and every value in used that a folder (or a folder in names that
// does not exist) no longer holds is reported absent.
func checkIndexConsistency(tb testing.TB, cab *folder.FileCabinet, names []string, used [][]byte) {
	tb.Helper()
	for _, name := range names {
		f := cab.Snapshot(name)
		if cab.FolderLen(name) != f.Len() {
			tb.Fatalf("folder %q: FolderLen %d vs snapshot %d", name, cab.FolderLen(name), f.Len())
		}
		for i := 0; i < f.Len(); i++ {
			e, err := f.At(i)
			if err != nil {
				tb.Fatal(err)
			}
			if !cab.Contains(name, e) {
				tb.Fatalf("folder %q: element %d missing from index", name, i)
			}
		}
		for _, v := range used {
			held := false
			for i := 0; i < f.Len() && !held; i++ {
				held = bytes.Equal(f.RawAt(i), v)
			}
			if !held && cab.Contains(name, v) {
				tb.Fatalf("folder %q: index reports % x, which the folder does not hold", name, v)
			}
		}
	}
}

// FuzzJournalReplay checks the recovery safety property the daemon relies
// on: whatever truncation or bit damage the log suffers, Open never panics,
// and when it succeeds the recovered cabinet is exactly the state after
// some prefix of the originally applied mutations, with a consistent
// membership index. The index is also checked on the live cabinet after the
// script, where TestAndAppend builds folder indexes partway through and
// later mutations must keep them right. (Damage behind the tail is allowed —
// and expected — to make Open refuse instead.)
func FuzzJournalReplay(f *testing.F) {
	f.Add([]byte{}, uint16(0), uint32(0), false, false)
	f.Add([]byte{0, 1, 2, 1, 2, 3, 2, 3, 4, 3, 4, 5, 4, 5, 6}, uint16(9), uint32(77), true, false)
	f.Add([]byte{4, 0, 9, 4, 0, 9, 0, 1, 1, 2, 1, 0, 3, 2, 0}, uint16(30), uint32(12), false, true)
	f.Add([]byte{1, 1, 200, 0, 2, 100, 2, 1, 0, 3, 3, 0}, uint16(5), uint32(5), true, true)
	f.Add([]byte{4, 0, 1, 4, 0, 1, 0, 0, 7, 2, 0, 0, 4, 1, 2}, uint16(0), uint32(0), false, false)
	f.Fuzz(func(t *testing.T, script []byte, cut uint16, flip uint32, doCut, doFlip bool) {
		dir := t.TempDir()
		cab := folder.NewCabinet()
		// CompactMinBytes is huge so the whole history stays in segment 1.
		w, err := Open(dir, cab, Options{NoSync: true, CompactMinBytes: 1 << 30})
		if err != nil {
			t.Fatal(err)
		}

		// Apply a scripted mutation sequence, remembering the cabinet image
		// after every step (torn-tail truncation must land on one of them).
		images := [][]byte{cabImage(t, cab)}
		names := []string{"F0", "F1", "F2", "F3"}
		var used [][]byte
		for i := 0; i+2 < len(script) && len(images) < 32; i += 3 {
			op, fb, vb := script[i], script[i+1], script[i+2]
			name := names[fb%4]
			val := []byte{vb, fb, op}
			used = append(used, val, []byte{op, vb})
			switch op % 5 {
			case 0:
				cab.Append(name, val)
			case 1:
				cab.Put(name, folder.Of(val, []byte{op, vb}))
			case 2:
				cab.Dequeue(name) // may fail on empty: no record, no state change
			case 3:
				cab.Delete(name)
			case 4:
				cab.TestAndAppend(name, val)
			}
			images = append(images, cabImage(t, cab))
		}
		checkIndexConsistency(t, cab, names, used)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}

		// Damage the log.
		seg := segPath(dir, 1)
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if doCut {
			data = data[:int(cut)%(len(data)+1)]
		}
		if doFlip && len(data) > 0 {
			data[int(flip)%len(data)] ^= 1 << (flip % 8)
		}
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}

		// Recover: refusal is fine, a wrong answer is not.
		cab2 := folder.NewCabinet()
		w2, err := Open(dir, cab2, Options{NoSync: true, CompactMinBytes: 1 << 30})
		if err != nil {
			return
		}
		defer w2.Close()
		got := cabImage(t, cab2)
		for _, im := range images {
			if bytes.Equal(got, im) {
				checkIndexConsistency(t, cab2, names, used)
				return
			}
		}
		t.Fatalf("recovered cabinet (%d bytes) matches no prefix of the %d applied states",
			len(got), len(images))
	})
}
