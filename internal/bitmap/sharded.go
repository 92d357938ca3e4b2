package bitmap

import (
	"fmt"
	"math/bits"
)

// DefaultShardBits is the shard size (in bits) found optimal in the
// paper's Fig. 6: 2^14 bits, a 0.39 % memory overhead for the per-shard
// 64-bit start value.
const DefaultShardBits = 1 << 14

// MinShardBits is the smallest supported shard size. Shards must span
// whole 64-bit words so that intra-shard shifts never cross a shard
// boundary.
const MinShardBits = wordBits

// Sharded is the update-conscious sharded bitmap of the paper (Section
// 4). The bitmap is virtually divided into fixed-size shards; each shard
// carries a start value holding the logical index of its first bit.
// Deleting a bit shifts only within its shard and decrements the start
// values of subsequent shards, so deletes cost O(shard size + #shards)
// instead of O(bitmap size).
//
// Physical layout: every shard owns its own word slice of shardWords
// words. Shard s holds live logical positions [starts[s], liveEnd(s)) in
// its leading bits; the trailing bits of a shard become dead ("lost")
// slots as deletes accumulate, until Condense reclaims them.
//
// The per-shard storage enables shard-granularity copy-on-write: Freeze
// returns a second Sharded sharing every shard's words, with both sides
// marked shared. The first mutation of a shared shard copies just that
// shard (mutableShard), so holding a frozen snapshot costs the writer
// O(shards touched), not O(bitmap size). A frozen bitmap may be read
// concurrently with mutations of its Freeze partner: shared word slices
// and the shared start-value array are never written in place — writers
// copy first — and each side's scalar bookkeeping lives in its own
// struct.
//
// Sharded is not safe for concurrent mutation: engine writers hold a
// partition lock and readers take Freeze copies (Section 5.4).
type Sharded struct {
	shards     [][]uint64 // shards[s]: shard s's words, shardWords long
	shared     []bool     // shared[s]: shards[s] is shared with a Freeze partner
	starts     []uint64   // starts[s]: logical index of first live bit of shard s
	startsMut  bool       // starts is NOT shared and may be written in place
	shardBits  uint64     // bits per shard, power of two, multiple of 64
	logShard   uint       // log2(shardBits)
	shardWords uint64     // shardBits / 64
	n          uint64     // live logical bits
	lost       uint64     // dead slots accumulated by deletes

	// vectorized selects the unrolled 256-bit cross-element shift kernel
	// (the Go analogue of the paper's AVX2 Listing 1). When false the
	// word-at-a-time scalar kernel is used; this reproduces the parallel
	// vs parallel+vectorized ablation of Fig. 6.
	vectorized bool
}

// NewSharded returns a sharded bitmap with n bits, all unset, using
// shardBits bits per shard. shardBits must be a power of two and at least
// MinShardBits. The vectorized shift kernel is enabled by default.
func NewSharded(n uint64, shardBits uint64) *Sharded {
	if shardBits < MinShardBits || shardBits&(shardBits-1) != 0 {
		panic(fmt.Sprintf("bitmap: shard size %d must be a power of two >= %d", shardBits, MinShardBits))
	}
	numShards := (n + shardBits - 1) / shardBits
	if numShards == 0 {
		numShards = 1
	}
	s := &Sharded{
		shards:     make([][]uint64, numShards),
		shared:     make([]bool, numShards),
		starts:     make([]uint64, numShards),
		startsMut:  true,
		shardBits:  shardBits,
		logShard:   uint(bits.TrailingZeros64(shardBits)),
		shardWords: shardBits / wordBits,
		n:          n,
		vectorized: true,
	}
	for i := range s.starts {
		s.shards[i] = make([]uint64, s.shardWords)
		s.starts[i] = uint64(i) * shardBits
	}
	return s
}

// SetVectorized selects between the word-vectorized and the scalar
// intra-shard shift kernel. Used by the Fig. 6 ablation benchmarks.
func (s *Sharded) SetVectorized(v bool) { s.vectorized = v }

// Len returns the number of live logical bits.
func (s *Sharded) Len() uint64 { return s.n }

// NumShards returns the number of physical shards.
func (s *Sharded) NumShards() int { return len(s.starts) }

// locate returns the shard holding logical position i and the physical
// bit offset of i within that shard's words. The initial guess
// i/shardBits can only undershoot (start values only decrease), so we
// probe forward over the start values of upcoming shards, as in the
// paper (Section 4.2.1).
func (s *Sharded) locate(i uint64) (shard, off uint64) {
	if i >= s.n {
		panic(fmt.Sprintf("bitmap: position %d out of range [0,%d)", i, s.n))
	}
	shard = i >> s.logShard
	for int(shard)+1 < len(s.starts) && s.starts[shard+1] <= i {
		shard++
	}
	return shard, i - s.starts[shard]
}

// liveBits returns the number of live bits in shard sh.
func (s *Sharded) liveBits(sh uint64) uint64 {
	if int(sh)+1 < len(s.starts) {
		return s.starts[sh+1] - s.starts[sh]
	}
	return s.n - s.starts[sh]
}

// mutableShard returns shard sh's words for writing, copying them first
// when a Freeze partner still references the current generation. This is
// the shard-granularity copy-on-write step: the cost of updating under a
// live snapshot is one shardWords copy per touched shard.
func (s *Sharded) mutableShard(sh uint64) []uint64 {
	if s.shared[sh] {
		cp := make([]uint64, s.shardWords)
		copy(cp, s.shards[sh])
		s.shards[sh] = cp
		s.shared[sh] = false
	}
	return s.shards[sh]
}

// mutableStarts returns the start-value array for writing, copying it
// first when shared with a Freeze partner. The array is 64/shardBits of
// the bitmap size (0.39 % at the default shard size), so copying it does
// not disturb the shards-touched COW bound.
func (s *Sharded) mutableStarts() []uint64 {
	if !s.startsMut {
		s.starts = append([]uint64(nil), s.starts...)
		s.startsMut = true
	}
	return s.starts
}

// Freeze returns an immutable-by-convention copy sharing all shard words
// and start values copy-on-write with s. Freezing costs O(#shards)
// bookkeeping and copies no bit data. After the call either side may be
// mutated (each under its own external synchronization): the first write
// to a shared shard copies that shard only, leaving the partner's view
// untouched. Reads of one side are safe concurrently with mutations of
// the other.
func (s *Sharded) Freeze() *Sharded {
	for i := range s.shared {
		s.shared[i] = true
	}
	s.startsMut = false
	c := *s
	c.shards = append([][]uint64(nil), s.shards...)
	c.shared = append([]bool(nil), s.shared...)
	return &c
}

// Set sets the bit at logical position i.
func (s *Sharded) Set(i uint64) {
	sh, off := s.locate(i)
	s.mutableShard(sh)[off>>logWord] |= 1 << (off & wordMask)
}

// Unset clears the bit at logical position i.
func (s *Sharded) Unset(i uint64) {
	sh, off := s.locate(i)
	s.mutableShard(sh)[off>>logWord] &^= 1 << (off & wordMask)
}

// Get reports whether the bit at logical position i is set.
func (s *Sharded) Get(i uint64) bool {
	sh, off := s.locate(i)
	return s.shards[sh][off>>logWord]&(1<<(off&wordMask)) != 0
}

// Delete removes the bit at logical position i: subsequent bits within
// the shard shift one position towards i, and the start values of all
// subsequent shards are decremented (Section 4.2.2).
func (s *Sharded) Delete(i uint64) {
	sh, off := s.locate(i)
	live := s.liveBits(sh)
	words := s.mutableShard(sh)
	if s.vectorized {
		shiftTailLeftOneVec(words, off, live)
	} else {
		shiftTailLeftOne(words, off, live)
	}
	starts := s.mutableStarts()
	for t := int(sh) + 1; t < len(starts); t++ {
		starts[t]--
	}
	s.n--
	s.lost++
}

// Count returns the number of set live bits.
func (s *Sharded) Count() uint64 {
	var c uint64
	for sh := range s.starts {
		words := s.shards[sh]
		live := s.liveBits(uint64(sh))
		full := live >> logWord
		for w := uint64(0); w < full; w++ {
			c += uint64(bits.OnesCount64(words[w]))
		}
		if rem := live & wordMask; rem != 0 {
			c += uint64(bits.OnesCount64(words[full] & (1<<rem - 1)))
		}
	}
	return c
}

// ForEachSet calls fn for each set live bit in ascending logical order.
// If fn returns false the iteration stops early.
func (s *Sharded) ForEachSet(fn func(pos uint64) bool) {
	for sh := range s.starts {
		logical := s.starts[sh]
		live := s.liveBits(uint64(sh))
		words := s.shards[sh]
		nw := (live + wordMask) >> logWord
		for w := uint64(0); w < nw; w++ {
			word := words[w]
			if w == nw-1 {
				if rem := live & wordMask; rem != 0 {
					word &= 1<<rem - 1
				}
			}
			for word != 0 {
				t := word & -word
				pos := logical + w*wordBits + uint64(bits.TrailingZeros64(word))
				if !fn(pos) {
					return
				}
				word ^= t
			}
		}
	}
}

// AppendSel appends to sel the offsets relative to lo of the bits in the
// logical range [lo, hi) that are set (invert=false) or unset
// (invert=true). It processes 64 bits per step instead of locating every
// position individually — the vectorized form of the PatchIndex
// selection modes: a scan batch covers a contiguous rowID range, and the
// exclude_patches / use_patches decision for all of its tuples is made
// word-at-a-time.
func (s *Sharded) AppendSel(lo, hi uint64, invert bool, sel []int32) []int32 {
	if hi > s.n {
		panic(fmt.Sprintf("bitmap: AppendSel range [%d,%d) exceeds length %d", lo, hi, s.n))
	}
	p := lo
	for p < hi {
		sh, off := s.locate(p)
		words := s.shards[sh]
		chunkEnd := s.starts[sh] + s.liveBits(sh)
		if chunkEnd > hi {
			chunkEnd = hi
		}
		for p < chunkEnd {
			count := chunkEnd - p
			if count > wordBits {
				count = wordBits
			}
			w := readBits(words, off, count)
			if invert {
				w = ^w
				if count < wordBits {
					w &= 1<<count - 1
				}
			}
			base := int32(p - lo)
			for w != 0 {
				b := bits.TrailingZeros64(w)
				sel = append(sel, base+int32(b))
				w &= w - 1
			}
			p += count
			off += count
		}
	}
	return sel
}

// SetSorted sets the bits at the given ascending logical positions and
// returns how many were newly set (previously clear). Duplicate
// positions are allowed (set once); descending ones panic. Consecutive
// positions that fall into the same shard are located once — the bulk
// form of Set used by PatchIndex patch merging, where insert and modify
// handling publish whole sorted rowID batches at a time.
func (s *Sharded) SetSorted(positions []uint64) (newlySet uint64) {
	var (
		words   []uint64
		sh      uint64
		shardLo uint64 // first logical position of the located shard
		shardHi uint64 // one past its last live logical position
		haveLoc bool
	)
	for i, pos := range positions {
		if i > 0 && pos < positions[i-1] {
			panic("bitmap: SetSorted positions must be ascending")
		}
		if !haveLoc || pos >= shardHi {
			var off uint64
			sh, off = s.locate(pos)
			words = s.mutableShard(sh)
			shardLo = pos - off
			shardHi = s.starts[sh] + s.liveBits(sh)
			haveLoc = true
		}
		off := pos - shardLo
		w, b := off>>logWord, uint64(1)<<(off&wordMask)
		if words[w]&b == 0 {
			words[w] |= b
			newlySet++
		}
	}
	return newlySet
}

// SetBits returns the logical positions of all set bits in ascending order.
func (s *Sharded) SetBits() []uint64 {
	out := make([]uint64, 0, s.Count())
	s.ForEachSet(func(pos uint64) bool {
		out = append(out, pos)
		return true
	})
	return out
}

// Grow appends extra unset bits at the logical end of the bitmap. Dead
// slots at the end of the last shard are reused first; further capacity
// is added as fresh shards (the "reallocate/resize" insert path of
// Section 4). Reusing dead slots writes no words — deletes keep them
// zeroed — so growing never copies a shared shard.
func (s *Sharded) Grow(extra uint64) {
	for extra > 0 {
		last := uint64(len(s.starts) - 1)
		free := s.shardBits - s.liveBits(last)
		if free == 0 {
			s.starts = append(s.mutableStarts(), s.n)
			s.shards = append(s.shards, make([]uint64, s.shardWords))
			s.shared = append(s.shared, false)
			continue
		}
		take := free
		if take > extra {
			take = extra
		}
		// Dead slots are kept zeroed by Delete/BulkDelete, so extending
		// the live region exposes unset bits.
		s.n += take
		s.lost -= min64(s.lost, take)
		extra -= take
	}
}

// Utilization returns the fraction of physical slots that are live.
// It degrades as deletes accumulate and is restored to 1 by Condense.
func (s *Sharded) Utilization() float64 {
	capBits := uint64(len(s.starts)) * s.shardBits
	if capBits == 0 {
		return 1
	}
	return float64(s.n) / float64(capBits)
}

// SizeBytes returns the memory consumed by bit storage plus start values.
func (s *Sharded) SizeBytes() uint64 {
	return uint64(len(s.starts))*s.shardWords*8 + uint64(len(s.starts))*8
}

// OverheadPercent returns the sharding memory overhead relative to an
// ordinary bitmap of the same capacity: 64/shard_size * 100 (Section 6.1).
func (s *Sharded) OverheadPercent() float64 {
	return float64(wordBits) / float64(s.shardBits) * 100
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
