package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func testSegment(t *testing.T) (*Segment, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "seg.wal")
	s, err := OpenSegment(path, SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, path
}

func TestSegmentRoundtrip(t *testing.T) {
	s, path := testSegment(t)
	bodies := [][]byte{[]byte("alpha"), {}, []byte("gamma-longer-body")}
	for i, b := range bodies {
		if err := s.Append(uint64(i+1), byte(i), b); err != nil {
			t.Fatal(err)
		}
	}
	recs, clean, err := ReadSegment(path)
	if err != nil || !clean {
		t.Fatalf("ReadSegment: clean=%v err=%v", clean, err)
	}
	if len(recs) != len(bodies) {
		t.Fatalf("got %d records, want %d", len(recs), len(bodies))
	}
	for i, r := range recs {
		if r.LSN != uint64(i+1) || r.Op != byte(i) || !bytes.Equal(r.Body, bodies[i]) {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
}

func TestSegmentRejectsStaleLSN(t *testing.T) {
	s, _ := testSegment(t)
	if err := s.Append(5, 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(5, 1, nil); err == nil {
		t.Fatal("duplicate LSN accepted")
	}
	if err := s.Append(4, 1, nil); err == nil {
		t.Fatal("regressing LSN accepted")
	}
}

// TestSegmentTornTail truncates a three-record segment at every byte
// boundary: reading and reopening must recover exactly the records whose
// frames fully survived, and reopening must leave the file appendable.
func TestSegmentTornTail(t *testing.T) {
	s, path := testSegment(t)
	var ends []int64
	for i := 1; i <= 3; i++ {
		if err := s.Append(uint64(i), 7, bytes.Repeat([]byte{byte(i)}, 10+i)); err != nil {
			t.Fatal(err)
		}
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		ends = append(ends, st.Size())
	}
	s.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := int64(0); cut <= int64(len(full)); cut++ {
		dir := t.TempDir()
		p := filepath.Join(dir, "cut.wal")
		if err := os.WriteFile(p, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		want := 0
		for _, e := range ends {
			if cut >= e {
				want++
			}
		}
		recs, clean, err := ReadSegment(p)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(recs) != want {
			t.Fatalf("cut %d: got %d records, want %d", cut, len(recs), want)
		}
		wantClean := cut == 0 || cut == ends[0] || cut == ends[1] || cut == ends[2]
		if clean != wantClean {
			t.Fatalf("cut %d: clean=%v, want %v", cut, clean, wantClean)
		}
		// Reopen must truncate the torn tail and accept a fresh append.
		seg, err := OpenSegment(p, SyncNone)
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		if err := seg.Append(100, 9, []byte("post")); err != nil {
			t.Fatalf("cut %d: append after reopen: %v", cut, err)
		}
		seg.Close()
		recs, clean, err = ReadSegment(p)
		if err != nil || !clean {
			t.Fatalf("cut %d: reread clean=%v err=%v", cut, clean, err)
		}
		if len(recs) != want+1 || recs[len(recs)-1].LSN != 100 {
			t.Fatalf("cut %d: post-append records %d", cut, len(recs))
		}
	}
}

// TestSegmentBitFlip flips every bit of a record's frame in turn: the
// read prefix must stop at or before the damaged record and never panic
// or mis-decode.
func TestSegmentBitFlip(t *testing.T) {
	s, path := testSegment(t)
	for i := 1; i <= 2; i++ {
		if err := s.Append(uint64(i), 3, []byte("payload")); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for bit := 0; bit < len(full)*8; bit++ {
		mut := append([]byte(nil), full...)
		mut[bit/8] ^= 1 << (bit % 8)
		p := filepath.Join(t.TempDir(), "flip.wal")
		if err := os.WriteFile(p, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, _, err := ReadSegment(p)
		if err != nil {
			t.Fatalf("bit %d: %v", bit, err)
		}
		if len(recs) > 2 {
			t.Fatalf("bit %d: %d records from a 2-record file", bit, len(recs))
		}
		// A record that did decode must be one of the two we wrote.
		for _, r := range recs {
			if r.Op != 3 || !bytes.Equal(r.Body, []byte("payload")) {
				t.Fatalf("bit %d: corrupt record decoded as valid: %+v", bit, r)
			}
		}
	}
}

func TestTruncateThrough(t *testing.T) {
	s, path := testSegment(t)
	for i := 1; i <= 5; i++ {
		if err := s.Append(uint64(i), 1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.TruncateThrough(3); err != nil {
		t.Fatal(err)
	}
	recs, clean, err := ReadSegment(path)
	if err != nil || !clean {
		t.Fatalf("clean=%v err=%v", clean, err)
	}
	if len(recs) != 2 || recs[0].LSN != 4 || recs[1].LSN != 5 {
		t.Fatalf("surviving records: %+v", recs)
	}
	// Appends continue on the rewritten file.
	if err := s.Append(6, 1, []byte{6}); err != nil {
		t.Fatal(err)
	}
	recs, _, _ = ReadSegment(path)
	if len(recs) != 3 || recs[2].LSN != 6 {
		t.Fatalf("post-truncation append lost: %+v", recs)
	}
	// Truncating everything leaves an empty but appendable segment.
	if err := s.TruncateThrough(100); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(101, 1, nil); err != nil {
		t.Fatal(err)
	}
	recs, _, _ = ReadSegment(path)
	if len(recs) != 1 || recs[0].LSN != 101 {
		t.Fatalf("append after full truncation: %+v", recs)
	}
	// A truncation that would drop nothing keeps the very same file.
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.TruncateThrough(100); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(before, after) {
		t.Fatal("a truncation that drops nothing replaced the segment file")
	}
	recs, clean, err = ReadSegment(path)
	if err != nil || !clean || len(recs) != 1 || recs[0].LSN != 101 {
		t.Fatalf("no-op truncation changed the segment: clean=%v err=%v recs=%+v", clean, err, recs)
	}
	// A torn tail is still rewritten away, even with nothing to drop.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{40, 0, 0, 0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := s.TruncateThrough(100); err != nil {
		t.Fatal(err)
	}
	after, err = os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if os.SameFile(before, after) {
		t.Fatal("a segment with a torn tail was not rewritten")
	}
	recs, clean, err = ReadSegment(path)
	if err != nil || !clean || len(recs) != 1 || recs[0].LSN != 101 {
		t.Fatalf("after rewriting the torn tail: clean=%v err=%v recs=%+v", clean, err, recs)
	}
}
