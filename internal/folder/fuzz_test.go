package folder

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// A forged element count near 2^64 must fail cleanly: converted to int it
// would go negative and panic make(). (Found by review; kept as a fixed
// regression alongside the fuzz corpus.)
func TestDecodeForgedCountNoPanic(t *testing.T) {
	folderFrame := binary.AppendUvarint([]byte{magicFolder, codecVersion}, math.MaxUint64)
	if _, err := DecodeFolder(folderFrame); err == nil {
		t.Fatal("forged folder count accepted")
	}
	bcFrame := []byte{magicBriefcase, codecVersion, 1, 1, 'F'}
	bcFrame = append(bcFrame, folderFrame...)
	if _, err := DecodeBriefcase(bcFrame); err == nil {
		t.Fatal("forged briefcase folder count accepted")
	}
}

// FuzzDecodeBriefcase checks the two codec safety properties the transport
// relies on: decoding arbitrary bytes never panics, and for any input that
// decodes, the decoded briefcase survives an encode/decode round trip
// unchanged (encode is canonical, so it also re-encodes to identical bytes).
func FuzzDecodeBriefcase(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{magicBriefcase, codecVersion, 0})
	f.Add([]byte{magicFolder, codecVersion, 0})

	seed := NewBriefcase()
	seed.PutString("HOST", "site-1")
	seed.Put("CODE", OfStrings("jump site-1", "bc_push RESULT done"))
	seed.Put("BLOB", Of([]byte{0, 1, 2, 0xFF}, nil, []byte("x")))
	f.Add(EncodeBriefcase(seed))

	nested := NewBriefcase()
	nested.Put("INNER", Of(EncodeBriefcase(seed), EncodeFolder(OfStrings("a", "b"))))
	f.Add(EncodeBriefcase(nested))

	f.Fuzz(func(t *testing.T, data []byte) {
		bc, err := DecodeBriefcase(data)
		if err != nil {
			return // malformed input is allowed to fail, not to panic
		}
		enc := EncodeBriefcase(bc)
		back, err := DecodeBriefcase(enc)
		if err != nil {
			t.Fatalf("re-decode of canonical encoding failed: %v", err)
		}
		if !bc.Equal(back) {
			t.Fatalf("round trip changed briefcase: %v != %v", bc, back)
		}
		if again := EncodeBriefcase(back); !bytes.Equal(enc, again) {
			t.Fatalf("encoding is not canonical: % x != % x", enc, again)
		}
	})
}

// FuzzCabinetLoad mirrors FuzzDecodeBriefcase for the cabinet restore path
// WAL snapshot recovery loads through: loading arbitrary bytes never panics, a failed
// load leaves the cabinet untouched, and a successful load rebuilds a
// membership index consistent with the folder contents and survives a
// Flush/Load round trip unchanged.
func FuzzCabinetLoad(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{magicBriefcase, codecVersion, 0})

	seed := NewBriefcase()
	seed.PutString("MBOX:alice", "a message")
	seed.Put("SEEN", OfStrings("roamer-1", "roamer-1", "roamer-2"))
	seed.Put("BLOB", Of([]byte{0, 1, 2, 0xFF}, nil, []byte("x")))
	f.Add(EncodeBriefcase(seed))

	f.Fuzz(func(t *testing.T, data []byte) {
		cab := NewCabinet()
		cab.AppendString("PRE", "existing")
		if err := cab.Load(bytes.NewReader(data)); err != nil {
			// Malformed input must fail cleanly and leave prior contents.
			if !cab.ContainsString("PRE", "existing") {
				t.Fatal("failed load clobbered the cabinet")
			}
			return
		}
		// Index consistency: every stored element is indexed, and lengths
		// agree between the index-backed and snapshot views.
		for _, name := range cab.Names() {
			fo := cab.Snapshot(name)
			if cab.FolderLen(name) != fo.Len() {
				t.Fatalf("folder %q: FolderLen %d, snapshot %d", name, cab.FolderLen(name), fo.Len())
			}
			for i := 0; i < fo.Len(); i++ {
				e, err := fo.At(i)
				if err != nil {
					t.Fatal(err)
				}
				if !cab.Contains(name, e) {
					t.Fatalf("folder %q: element %d missing from index", name, i)
				}
			}
		}
		// Flush/Load round trip: the loaded state re-persists unchanged.
		var buf bytes.Buffer
		if err := cab.Flush(&buf); err != nil {
			t.Fatal(err)
		}
		cab2 := NewCabinet()
		if err := cab2.Load(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("re-load of flushed image failed: %v", err)
		}
		var buf2 bytes.Buffer
		if err := cab2.Flush(&buf2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatal("Flush/Load round trip changed the cabinet image")
		}
	})
}

// FuzzDecodeFolder is the folder-level analogue; folders also arrive as raw
// elements (queued meeting requests) and must never panic the decoder.
func FuzzDecodeFolder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{magicFolder, codecVersion, 0})
	f.Add(binary.AppendUvarint([]byte{magicFolder, codecVersion}, math.MaxUint64))
	f.Add(EncodeFolder(OfStrings("one", "two", "")))
	f.Add(EncodeFolder(Of([]byte{0xF0, 0x01}, nil)))

	f.Fuzz(func(t *testing.T, data []byte) {
		fo, err := DecodeFolder(data)
		if err != nil {
			return
		}
		enc := EncodeFolder(fo)
		back, err := DecodeFolder(enc)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !fo.Equal(back) {
			t.Fatalf("round trip changed folder: %v != %v", fo, back)
		}
	})
}
