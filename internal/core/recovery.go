package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"patchindex/internal/bitmap"
)

// Recovery (Section 3.4): PatchIndexes are main-memory structures that
// are recreated after a restart, or persisted to disk as a checkpoint in
// combination with logging of subsequent update operations. WriteTo and
// ReadFrom implement the checkpoint encoding.
//
// Format PIX2 covers the whole stream — header and patch payload — with
// a trailing CRC32 (IEEE), so a torn or bit-flipped checkpoint is
// rejected instead of silently restoring a corrupt index.

const magicIndex = 0x50495832 // "PIX2", CRC32 trailer

// WriteTo serializes the index as a checkpoint. It implements
// io.WriterTo. Everything before the 4-byte trailer is checksummed.
func (x *Index) WriteTo(w io.Writer) (int64, error) {
	h := crc32.NewIEEE()
	cw := io.MultiWriter(w, h)
	hdr := make([]byte, 56)
	binary.LittleEndian.PutUint32(hdr[0:], magicIndex)
	hdr[4] = byte(x.constraint)
	hdr[5] = byte(x.opts.Design)
	if x.opts.Descending {
		hdr[6] = 1
	}
	if x.hasLastValue {
		hdr[7] = 1
	}
	binary.LittleEndian.PutUint64(hdr[8:], x.rows)
	binary.LittleEndian.PutUint64(hdr[16:], x.np)
	binary.LittleEndian.PutUint64(hdr[24:], uint64(x.lastValue))
	binary.LittleEndian.PutUint64(hdr[32:], x.opts.ShardBits)
	binary.LittleEndian.PutUint64(hdr[40:], uint64(len(x.ids)))
	// hdr[48:56] reserved, must be zero.
	if _, err := cw.Write(hdr); err != nil {
		return 0, err
	}
	written := int64(len(hdr))
	if x.opts.Design == DesignBitmap {
		n, err := x.bm.WriteTo(cw)
		written += n
		if err != nil {
			return written, err
		}
	} else {
		buf := make([]byte, 8)
		for _, id := range x.ids {
			binary.LittleEndian.PutUint64(buf, id)
			n, err := cw.Write(buf)
			written += int64(n)
			if err != nil {
				return written, err
			}
		}
	}
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], h.Sum32())
	n, err := w.Write(trailer[:])
	return written + int64(n), err
}

// ReadFrom restores an index from a checkpoint written by WriteTo. The
// header is validated field by field before anything is allocated from
// it, the identifier list is read in bounded chunks (a corrupt count
// cannot force an allocation larger than the stream backing it), and the
// CRC32 trailer is verified against everything read.
func (x *Index) ReadFrom(r io.Reader) (int64, error) {
	hdr := make([]byte, 56)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, err
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != magicIndex {
		return 0, errors.New("core: bad magic in PatchIndex checkpoint")
	}
	payload := &crc32Reader{r: r, h: crc32.NewIEEE()}
	payload.h.Write(hdr)
	if hdr[4] > 1 {
		return 0, fmt.Errorf("core: corrupt PatchIndex checkpoint: constraint byte %d", hdr[4])
	}
	if hdr[5] > 1 {
		return 0, fmt.Errorf("core: corrupt PatchIndex checkpoint: design byte %d", hdr[5])
	}
	if hdr[6] > 1 || hdr[7] > 1 {
		return 0, fmt.Errorf("core: corrupt PatchIndex checkpoint: flag bytes %d,%d", hdr[6], hdr[7])
	}
	for _, b := range hdr[48:56] {
		if b != 0 {
			return 0, errors.New("core: corrupt PatchIndex checkpoint: nonzero reserved bytes")
		}
	}
	x.constraint = Constraint(hdr[4])
	x.opts.Design = Design(hdr[5])
	x.opts.Descending = hdr[6] == 1
	x.hasLastValue = hdr[7] == 1
	x.rows = binary.LittleEndian.Uint64(hdr[8:])
	x.np = binary.LittleEndian.Uint64(hdr[16:])
	x.lastValue = int64(binary.LittleEndian.Uint64(hdr[24:]))
	x.opts.ShardBits = binary.LittleEndian.Uint64(hdr[32:])
	nIDs := binary.LittleEndian.Uint64(hdr[40:])
	read := int64(len(hdr))
	if x.opts.Design == DesignBitmap {
		if nIDs != 0 {
			return read, fmt.Errorf("core: corrupt PatchIndex checkpoint: bitmap design with %d identifiers", nIDs)
		}
		x.bm = &bitmap.Sharded{}
		x.ids = nil
		x.idsShared = false
		n, err := x.bm.ReadFrom(payload)
		read += n
		if err != nil {
			return read, err
		}
		return x.finishRead(r, payload, read)
	}
	if nIDs != x.np {
		return read, fmt.Errorf("core: corrupt PatchIndex checkpoint: %d identifiers for np %d", nIDs, x.np)
	}
	if x.np > x.rows {
		return read, fmt.Errorf("core: corrupt PatchIndex checkpoint: np %d exceeds rows %d", x.np, x.rows)
	}
	// Chunked reads cap the allocation a corrupt count can demand: each
	// chunk must arrive off the stream before the next is allocated.
	const chunk = 1 << 16
	x.ids = nil
	x.idsShared = false
	buf := make([]byte, 8)
	for remaining := nIDs; remaining > 0; {
		k := remaining
		if k > chunk {
			k = chunk
		}
		ids := make([]uint64, 0, k)
		for i := uint64(0); i < k; i++ {
			n, err := io.ReadFull(payload, buf)
			read += int64(n)
			if err != nil {
				return read, err
			}
			ids = append(ids, binary.LittleEndian.Uint64(buf))
		}
		x.ids = append(x.ids, ids...)
		remaining -= k
	}
	return x.finishRead(r, payload, read)
}

// finishRead verifies the trailer and then the decoded index's own
// invariants — the header and payload must agree with each other, not
// just with their checksum.
func (x *Index) finishRead(r io.Reader, h *crc32Reader, read int64) (int64, error) {
	var trailer [4]byte
	n, err := io.ReadFull(r, trailer[:])
	read += int64(n)
	if err != nil {
		return read, err
	}
	if got, want := h.h.Sum32(), binary.LittleEndian.Uint32(trailer[:]); got != want {
		return read, fmt.Errorf("core: PatchIndex checkpoint CRC mismatch: computed %08x, stored %08x", got, want)
	}
	if err := x.Validate(); err != nil {
		return read, fmt.Errorf("core: corrupt PatchIndex checkpoint: %w", err)
	}
	return read, nil
}

// crc32Reader folds everything read through it into a running CRC32 —
// io.TeeReader with a concrete type, so ReadFrom can read the trailer
// from the raw reader without including it in the sum.
type crc32Reader struct {
	r io.Reader
	h interface {
		io.Writer
		Sum32() uint32
	}
}

func (c *crc32Reader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if n > 0 {
		c.h.Write(p[:n])
	}
	return n, err
}
