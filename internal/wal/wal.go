// Package wal implements the write-ahead log segments behind the
// engine's durability path (Section 3.4: PatchIndexes are "persisted to
// disk as a checkpoint in combination with logging of subsequent update
// operations" — this package is the logging half).
//
// A Segment is one append-only log file. The engine keeps one segment
// per table partition plus one table-level segment for exclusive-lock
// operations; each segment is appended to only while the engine lock
// that owns the corresponding state is held (the partition lock for
// partition segments, the exclusive structure lock for the table
// segment), so the WAL adds no cross-partition ordering of its own. The
// segment mutex (lock-rank 60, above every engine lock) exists solely
// to order appends against checkpoint truncation, which runs with no
// engine lock held.
//
// # Record format
//
// Each record is framed as
//
//	u32 payload length | u32 CRC32(payload) | payload
//
// with payload = u64 LSN | u8 op | body, all little-endian. The CRC is
// the integrity check recovery relies on: a torn append (the tail of a
// segment after a crash) or a flipped bit fails the checksum, and
// reading stops cleanly at the first bad record — everything before it
// is intact by checksum, everything after it is discarded, which is
// exactly the committed-prefix semantics the engine's replay needs. LSNs
// are assigned by the engine from a per-table counter and are strictly
// increasing within every segment; reading enforces that, so a
// misdirected or duplicated frame also terminates the valid prefix.
//
// # Sync policy
//
// SyncNone (the default) issues plain write syscalls: every append that
// returned before a process kill (kill -9 included) survives in the
// page cache, which is the failure model this engine targets. SyncEach
// additionally fsyncs every append for power-loss durability, at the
// usual cost per update.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"sync"
)

// SyncPolicy selects when appends reach stable storage.
type SyncPolicy int

const (
	// SyncNone: appends are plain writes — durable against process
	// death (the page cache survives kill -9), not against power loss.
	SyncNone SyncPolicy = iota
	// SyncEach: fsync after every append.
	SyncEach
)

// frameHeaderSize is the fixed prefix of every record: payload length
// plus payload CRC32.
const frameHeaderSize = 8

// payloadHeaderSize is the fixed prefix of every payload: LSN plus op.
const payloadHeaderSize = 9

// Record is one decoded log record.
type Record struct {
	LSN  uint64
	Op   byte
	Body []byte
}

// Segment is one append-only log file with torn-tail recovery.
type Segment struct {
	// mu orders appends against checkpoint truncation on the same file.
	// It ranks above every engine lock: appenders already hold their
	// partition lock (rank 30) or the structure lock (rank 20), and
	// truncation holds nothing else.
	mu   sync.Mutex // lock-rank: 60
	f    *os.File
	path string
	sync SyncPolicy

	// lastLSN is the LSN of the last valid record in the file; appends
	// must exceed it (zero on an empty segment).
	lastLSN uint64

	// broken latches the first append failure: a failed frame write may
	// leave a partial frame behind, after which further appends would be
	// unreadable garbage — so the segment refuses them and keeps
	// reporting the original error.
	broken error

	// buf is the reusable frame-assembly buffer; appends run on every
	// logged write path, so the frame is built without a per-record
	// allocation. Guarded by mu like the rest of the append state.
	buf []byte
}

// OpenSegment opens (creating if needed) the segment at path, scans it
// for its valid record prefix, and truncates any torn or corrupt tail so
// subsequent appends extend the valid prefix. The returned segment's
// LastLSN is the last valid record's LSN (zero when empty).
func OpenSegment(path string, policy SyncPolicy) (*Segment, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Close()
		return nil, err
	}
	recs, validEnd, _ := parseRecords(data)
	if validEnd < int64(len(data)) {
		if err := f.Truncate(validEnd); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: truncating torn tail of %s: %w", path, err)
		}
	}
	if _, err := f.Seek(validEnd, 0); err != nil {
		f.Close()
		return nil, err
	}
	s := &Segment{f: f, path: path, sync: policy}
	if len(recs) > 0 {
		s.lastLSN = recs[len(recs)-1].LSN
	}
	return s, nil
}

// Path returns the segment's file path.
func (s *Segment) Path() string { return s.path }

// LastLSN returns the LSN of the last record appended or recovered
// (zero when the segment holds no records).
func (s *Segment) LastLSN() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastLSN
}

// Append writes one record. lsn must exceed every previously appended
// LSN — the engine assigns LSNs under the same lock that serializes the
// appends, so a violation is a caller bug and is rejected. The frame is
// written with a single write call; a failed write latches the segment
// broken (see Segment.broken).
func (s *Segment) Append(lsn uint64, op byte, body []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	//pilint:ignore lockblock the segment mutex exists to order this file write against truncation of the same file; holding it across the append is its purpose
	return s.appendLocked(lsn, op, body)
}

func (s *Segment) appendLocked(lsn uint64, op byte, body []byte) error {
	if s.broken != nil {
		return fmt.Errorf("wal: segment %s is broken by an earlier append failure: %w", s.path, s.broken)
	}
	if lsn <= s.lastLSN {
		return fmt.Errorf("wal: append LSN %d not above segment %s last LSN %d", lsn, s.path, s.lastLSN)
	}
	need := frameHeaderSize + payloadHeaderSize + len(body)
	if cap(s.buf) < need {
		s.buf = make([]byte, need)
	}
	frame := s.buf[:need]
	payload := frame[frameHeaderSize:]
	binary.LittleEndian.PutUint64(payload[0:], lsn)
	payload[8] = op
	copy(payload[payloadHeaderSize:], body)
	binary.LittleEndian.PutUint32(frame[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
	if _, err := s.f.Write(frame); err != nil {
		s.broken = err
		return fmt.Errorf("wal: appending to %s: %w", s.path, err)
	}
	if s.sync == SyncEach {
		if err := s.f.Sync(); err != nil {
			s.broken = err
			return fmt.Errorf("wal: syncing %s: %w", s.path, err)
		}
	}
	s.lastLSN = lsn
	return nil
}

// TruncateThrough drops every record with LSN <= lsn — the checkpoint
// truncation: records covered by a persisted checkpoint are dead weight.
// Survivors are rewritten to a temporary file that atomically replaces
// the segment, so a crash mid-truncation leaves either the old or the
// new file, both valid. A segment the rewrite would reproduce byte for
// byte — it parses cleanly to its end, is not broken, and holds no
// record at or below lsn — is left as it is, with no fsync or rename.
func (s *Segment) TruncateThrough(lsn uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	//pilint:ignore lockblock the rewrite-and-rename must exclude concurrent appends to the same file; holding the segment mutex across it is its purpose
	return s.truncateLocked(lsn)
}

func (s *Segment) truncateLocked(lsn uint64) error {
	data, err := os.ReadFile(s.path)
	if err != nil {
		return err
	}
	recs, validEnd, _ := parseRecords(data)
	if s.broken == nil && validEnd == int64(len(data)) && (len(recs) == 0 || recs[0].LSN > lsn) {
		return nil
	}
	tmp, err := os.CreateTemp(dirOf(s.path), ".waltrunc-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after the successful rename
	for _, r := range recs {
		if r.LSN <= lsn {
			continue
		}
		frame := make([]byte, frameHeaderSize+payloadHeaderSize+len(r.Body))
		payload := frame[frameHeaderSize:]
		binary.LittleEndian.PutUint64(payload[0:], r.LSN)
		payload[8] = r.Op
		copy(payload[payloadHeaderSize:], r.Body)
		binary.LittleEndian.PutUint32(frame[0:], uint32(len(payload)))
		binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
		if _, err := tmp.Write(frame); err != nil {
			tmp.Close()
			return err
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := os.Rename(tmp.Name(), s.path); err != nil {
		tmp.Close()
		return err
	}
	old := s.f
	s.f = tmp // the handle follows the rename (same inode)
	old.Close()
	return nil
}

// Close closes the underlying file. The segment must not be used after.
func (s *Segment) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	//pilint:ignore lockblock closing the handle must exclude in-flight appends and truncations; the close is the segment's last operation
	return s.f.Close()
}

func dirOf(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[:i]
		}
	}
	return "."
}

// ReadSegment reads the valid record prefix of the segment at path
// without opening it for appends. clean reports whether the whole file
// was consumed: false means reading stopped at a torn or corrupt record
// (the crash/corruption case recovery must survive). A missing file is
// an empty, clean segment.
func ReadSegment(path string) (recs []Record, clean bool, err error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, true, nil
	}
	if err != nil {
		return nil, false, err
	}
	recs, validEnd, _ := parseRecords(data)
	return recs, validEnd == int64(len(data)), nil
}

// parseRecords decodes the longest valid record prefix of data. It
// returns the records, the byte offset just past the last valid record,
// and the reason the prefix ended early (nil when it spans all of data).
// Validity is structural (frame fits in the remaining bytes), checksummed
// (payload CRC32 matches), and ordered (LSNs strictly increase).
func parseRecords(data []byte) ([]Record, int64, error) {
	var recs []Record
	var off int64
	var lastLSN uint64
	n := int64(len(data))
	for off < n {
		if n-off < frameHeaderSize {
			return recs, off, errors.New("wal: torn frame header")
		}
		plen := int64(binary.LittleEndian.Uint32(data[off:]))
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if plen < payloadHeaderSize || plen > n-off-frameHeaderSize {
			return recs, off, errors.New("wal: bad or torn payload length")
		}
		payload := data[off+frameHeaderSize : off+frameHeaderSize+plen]
		if crc32.ChecksumIEEE(payload) != sum {
			return recs, off, errors.New("wal: payload checksum mismatch")
		}
		lsn := binary.LittleEndian.Uint64(payload[0:])
		if lsn <= lastLSN {
			return recs, off, errors.New("wal: non-monotonic LSN")
		}
		lastLSN = lsn
		body := make([]byte, plen-payloadHeaderSize)
		copy(body, payload[payloadHeaderSize:])
		recs = append(recs, Record{LSN: lsn, Op: payload[8], Body: body})
		off += frameHeaderSize + plen
	}
	return recs, off, nil
}
