package bitmap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
)

// Checkpoint support (Section 3.4): PatchIndexes are main-memory
// structures that are either recreated after a restart or persisted as a
// checkpoint. WriteTo/ReadFrom implement the checkpoint encoding of the
// sharded bitmap using a small self-describing binary header.

const magicSharded = 0x50495331 // "PIS1"

// WriteTo serializes the sharded bitmap. It implements io.WriterTo.
func (s *Sharded) WriteTo(w io.Writer) (int64, error) {
	hdr := make([]byte, 40)
	binary.LittleEndian.PutUint32(hdr[0:], magicSharded)
	binary.LittleEndian.PutUint32(hdr[4:], 0)
	binary.LittleEndian.PutUint64(hdr[8:], s.n)
	binary.LittleEndian.PutUint64(hdr[16:], s.shardBits)
	binary.LittleEndian.PutUint64(hdr[24:], s.lost)
	binary.LittleEndian.PutUint64(hdr[32:], uint64(len(s.starts)))
	if _, err := w.Write(hdr); err != nil {
		return 0, err
	}
	written := int64(len(hdr))
	n, err := writeWords(w, s.starts)
	written += n
	if err != nil {
		return written, err
	}
	// Shard words are written back to back, preserving the on-disk
	// format of the earlier flat layout.
	for _, shard := range s.shards {
		n, err = writeWords(w, shard)
		written += n
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// maxShardBits caps the shard size a checkpoint may declare (far above
// any size the engine creates), bounding the per-shard allocation a
// corrupt header can demand.
const maxShardBits = 1 << 26

// ReadFrom deserializes a sharded bitmap previously written with
// WriteTo. Header fields are cross-checked before anything is allocated
// from them — the shard count must cover the declared live and lost
// slots — and the word arrays are read in bounded chunks.
func (s *Sharded) ReadFrom(r io.Reader) (int64, error) {
	hdr := make([]byte, 40)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, err
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != magicSharded {
		return 0, errors.New("bitmap: bad magic in sharded bitmap checkpoint")
	}
	if binary.LittleEndian.Uint32(hdr[4:]) != 0 {
		return 0, errors.New("bitmap: corrupt checkpoint: nonzero reserved bytes")
	}
	s.n = binary.LittleEndian.Uint64(hdr[8:])
	s.shardBits = binary.LittleEndian.Uint64(hdr[16:])
	if s.shardBits < MinShardBits || s.shardBits > maxShardBits || s.shardBits&(s.shardBits-1) != 0 {
		return 0, fmt.Errorf("bitmap: corrupt checkpoint: shard size %d", s.shardBits)
	}
	s.logShard = uint(bits.TrailingZeros64(s.shardBits))
	s.shardWords = s.shardBits / wordBits
	s.lost = binary.LittleEndian.Uint64(hdr[24:])
	numShards := binary.LittleEndian.Uint64(hdr[32:])
	if numShards == 0 || numShards > (1<<62)/s.shardBits {
		return 0, fmt.Errorf("bitmap: corrupt checkpoint: shard count %d", numShards)
	}
	// numShards*shardBits <= 1<<62 here, so the capacity product cannot
	// wrap; the slots sum is checked for wrap explicitly.
	if slots := s.n + s.lost; slots < s.n || slots > numShards*s.shardBits {
		return 0, fmt.Errorf("bitmap: corrupt checkpoint: %d live + %d lost slots overflow %d shards of %d bits", s.n, s.lost, numShards, s.shardBits)
	}
	s.vectorized = true
	read := int64(len(hdr))
	starts, n, err := readWordsCapped(r, nil, numShards)
	read += n
	if err != nil {
		return read, err
	}
	// Every accessor trusts the start values to describe per-shard live
	// extents within shard capacity; a corrupt array would index out of
	// a shard's words. starts[0] is pinned at zero by construction and
	// deletes only ever decrement later entries.
	if starts[0] != 0 {
		return read, fmt.Errorf("bitmap: corrupt checkpoint: first shard starts at %d", starts[0])
	}
	for sh := uint64(0); sh < numShards; sh++ {
		next := s.n
		if sh+1 < numShards {
			next = starts[sh+1]
		}
		if next < starts[sh] || next-starts[sh] > s.shardBits {
			return read, fmt.Errorf("bitmap: corrupt checkpoint: shard %d spans [%d, %d) with %d-bit shards", sh, starts[sh], next, s.shardBits)
		}
	}
	s.starts = starts
	s.shards = make([][]uint64, numShards)
	s.shared = make([]bool, numShards)
	s.startsMut = true
	for i := range s.shards {
		s.shards[i] = make([]uint64, s.shardWords)
		n, err = readWords(r, s.shards[i])
		read += n
		if err != nil {
			return read, err
		}
	}
	return read, nil
}

func writeWords(w io.Writer, words []uint64) (int64, error) {
	buf := make([]byte, 8192)
	var written int64
	for len(words) > 0 {
		k := len(buf) / 8
		if k > len(words) {
			k = len(words)
		}
		for i := 0; i < k; i++ {
			binary.LittleEndian.PutUint64(buf[i*8:], words[i])
		}
		n, err := w.Write(buf[:k*8])
		written += int64(n)
		if err != nil {
			return written, err
		}
		words = words[k:]
	}
	return written, nil
}

// readWordsCapped reads want words appended to dst in bounded chunks: a
// corrupt header count cannot force an up-front allocation, because each
// chunk must arrive off the stream before the next is allocated.
func readWordsCapped(r io.Reader, dst []uint64, want uint64) ([]uint64, int64, error) {
	const chunk = 1 << 16
	var read int64
	for want > 0 {
		k := want
		if k > chunk {
			k = chunk
		}
		buf := make([]uint64, k)
		n, err := readWords(r, buf)
		read += n
		if err != nil {
			return dst, read, err
		}
		dst = append(dst, buf...)
		want -= k
	}
	return dst, read, nil
}

func readWords(r io.Reader, words []uint64) (int64, error) {
	buf := make([]byte, 8192)
	var read int64
	for len(words) > 0 {
		k := len(buf) / 8
		if k > len(words) {
			k = len(words)
		}
		n, err := io.ReadFull(r, buf[:k*8])
		read += int64(n)
		if err != nil {
			return read, err
		}
		for i := 0; i < k; i++ {
			words[i] = binary.LittleEndian.Uint64(buf[i*8:])
		}
		words = words[k:]
	}
	return read, nil
}
