package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"strings"
	"testing"
)

// checkpointBytes serializes one index of each design for corpus and
// corruption tests.
func checkpointBytes(t testing.TB, d Design) []byte {
	t.Helper()
	x := New(NearlySorted, 500, []uint64{1, 99, 400}, Options{Design: d, ShardBits: 128})
	var buf bytes.Buffer
	if _, err := x.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	return buf.Bytes()
}

// restamp recomputes the CRC32 trailer of a checkpoint stream in place,
// so a test's corruption reaches the decoder's field checks.
func restamp(b []byte) {
	if len(b) >= 4 {
		binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[:len(b)-4]))
	}
}

func TestCheckpointRejectsTruncation(t *testing.T) {
	for _, d := range bothDesigns {
		full := checkpointBytes(t, d)
		for cut := 0; cut < len(full); cut++ {
			var y Index
			if _, err := y.ReadFrom(bytes.NewReader(full[:cut])); err == nil {
				t.Fatalf("%v: accepted checkpoint truncated to %d of %d bytes", d, cut, len(full))
			}
		}
	}
}

func TestCheckpointRejectsBitFlips(t *testing.T) {
	for _, d := range bothDesigns {
		full := checkpointBytes(t, d)
		for i := range full {
			for bit := 0; bit < 8; bit++ {
				flipped := append([]byte(nil), full...)
				flipped[i] ^= 1 << bit
				var y Index
				if _, err := y.ReadFrom(bytes.NewReader(flipped)); err == nil {
					t.Fatalf("%v: accepted checkpoint with bit %d of byte %d flipped", d, bit, i)
				}
			}
		}
	}
}

// TestCheckpointRejectsPIX1: the pre-checksum PIX1 format (the PIX2
// layout with another magic and no trailer) is no longer read.
func TestCheckpointRejectsPIX1(t *testing.T) {
	for _, d := range bothDesigns {
		full := checkpointBytes(t, d)
		for _, legacy := range [][]byte{full[:len(full)-4], full} {
			legacy = append([]byte(nil), legacy...)
			binary.LittleEndian.PutUint32(legacy[0:], 0x50495831) // "PIX1"
			restamp(legacy)
			var y Index
			_, err := y.ReadFrom(bytes.NewReader(legacy))
			if err == nil || !strings.Contains(err.Error(), "bad magic") {
				t.Fatalf("%v: PIX1 checkpoint of %d bytes: err %v, want bad magic", d, len(legacy), err)
			}
		}
	}
}

func TestCheckpointRejectsHeaderCorruption(t *testing.T) {
	corrupt := func(d Design, name string, mutate func([]byte)) {
		full := checkpointBytes(t, d)
		mutate(full)
		// A valid trailer over the corruption: the field validation, not
		// the CRC, must catch it.
		restamp(full)
		var y Index
		if _, err := y.ReadFrom(bytes.NewReader(full)); err == nil {
			t.Fatalf("%v: header validation missed %s", d, name)
		} else if strings.Contains(err.Error(), "CRC") {
			t.Fatalf("%v: %s rejected by CRC, not validation: %v", d, name, err)
		}
	}
	for _, d := range bothDesigns {
		corrupt(d, "bad constraint byte", func(b []byte) { b[4] = 7 })
		corrupt(d, "bad design byte", func(b []byte) { b[5] = 9 })
		corrupt(d, "bad flag byte", func(b []byte) { b[6] = 2 })
		corrupt(d, "nonzero reserved bytes", func(b []byte) { b[50] = 1 })
	}
	// Identifier-specific inconsistencies.
	corrupt(DesignIdentifier, "id count != np", func(b []byte) {
		binary.LittleEndian.PutUint64(b[40:], 4)
	})
	corrupt(DesignIdentifier, "np > rows", func(b []byte) {
		binary.LittleEndian.PutUint64(b[8:], 2)  // rows
		binary.LittleEndian.PutUint64(b[16:], 3) // np
	})
	corrupt(DesignBitmap, "bitmap with identifier payload length", func(b []byte) {
		binary.LittleEndian.PutUint64(b[40:], 3)
	})
}

// FuzzIndexReadFrom asserts ReadFrom is total over arbitrary bytes: it
// must return an error or a valid index, never panic, and a bogus
// header must not be able to demand an allocation larger than the
// input that carried it (enforced by the chunked readers; a panicking
// over-allocation would surface as a fuzz crash).
func FuzzIndexReadFrom(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, 56))
	for _, d := range bothDesigns {
		full := checkpointBytes(f, d)
		f.Add(full)
		f.Add(full[:len(full)/2])
		// The retired PIX1 magic over a PIX2 body.
		pix1 := append([]byte(nil), full...)
		binary.LittleEndian.PutUint32(pix1[0:], 0x50495831)
		f.Add(pix1)
		// A huge declared id count over a short stream.
		huge := append([]byte(nil), full[:56]...)
		binary.LittleEndian.PutUint64(huge[8:], 1<<60)  // rows
		binary.LittleEndian.PutUint64(huge[16:], 1<<60) // np
		binary.LittleEndian.PutUint64(huge[40:], 1<<60) // nIDs
		f.Add(huge)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// A valid trailer over every input, so the mutations reach the
		// field checks instead of all dying at the CRC.
		data = append([]byte(nil), data...)
		restamp(data)
		var y Index
		if _, err := y.ReadFrom(bytes.NewReader(data)); err != nil {
			return
		}
		// An accepted stream must decode to an internally consistent
		// index.
		if err := y.Validate(); err != nil {
			t.Fatalf("ReadFrom accepted a stream that fails Validate: %v", err)
		}
	})
}
