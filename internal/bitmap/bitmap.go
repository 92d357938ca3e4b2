// Package bitmap provides the bitmap data structures underlying the
// PatchIndex: an ordinary (flat) bitmap used as the baseline, and the
// update-conscious sharded bitmap of the paper (Section 4), which keeps
// delete operations local to fixed-size virtual shards and supports a
// parallel, word-vectorized bulk delete.
//
// All positions are logical bit indexes starting at zero. The sharded
// bitmap preserves the semantic of the paper's delete operation: after
// Delete(p), the bit formerly at position p+1 is observed at position p.
package bitmap

import (
	"fmt"
	"math/bits"
)

const (
	wordBits = 64
	wordMask = wordBits - 1
	logWord  = 6
)

// Bitmap is an ordinary densely packed bitmap. It is the baseline the
// paper compares the sharded design against (Table 2): bit access is a
// shift and a mask, but Delete must shift the entire tail of the bitmap
// and is therefore linear in the bitmap size.
type Bitmap struct {
	words []uint64
	n     uint64 // number of logical bits
}

// New returns an ordinary bitmap with n bits, all unset.
func New(n uint64) *Bitmap {
	return &Bitmap{words: make([]uint64, wordsFor(n)), n: n}
}

func wordsFor(n uint64) uint64 { return (n + wordMask) / wordBits }

// Len returns the number of logical bits in the bitmap.
func (b *Bitmap) Len() uint64 { return b.n }

// Set sets the bit at position i.
func (b *Bitmap) Set(i uint64) {
	b.check(i)
	b.words[i>>logWord] |= 1 << (i & wordMask)
}

// Unset clears the bit at position i.
func (b *Bitmap) Unset(i uint64) {
	b.check(i)
	b.words[i>>logWord] &^= 1 << (i & wordMask)
}

// Get reports whether the bit at position i is set.
func (b *Bitmap) Get(i uint64) bool {
	b.check(i)
	return b.words[i>>logWord]&(1<<(i&wordMask)) != 0
}

func (b *Bitmap) check(i uint64) {
	if i >= b.n {
		panic(fmt.Sprintf("bitmap: position %d out of range [0,%d)", i, b.n))
	}
}

// Count returns the number of set bits.
func (b *Bitmap) Count() uint64 {
	var c uint64
	full := b.n >> logWord
	for w := uint64(0); w < full; w++ {
		c += uint64(bits.OnesCount64(b.words[w]))
	}
	if rem := b.n & wordMask; rem != 0 {
		c += uint64(bits.OnesCount64(b.words[full] & (1<<rem - 1)))
	}
	return c
}

// Delete removes the bit at position i, shifting all subsequent bits one
// position towards i. This is the operation the sharded bitmap is designed
// to avoid: it rewrites the whole tail of the bitmap.
func (b *Bitmap) Delete(i uint64) {
	b.check(i)
	shiftTailLeftOne(b.words, i, b.n)
	b.n--
}

// ForEachSet calls fn for each set bit in ascending position order. If fn
// returns false the iteration stops early.
func (b *Bitmap) ForEachSet(fn func(pos uint64) bool) {
	nw := wordsFor(b.n)
	for w := uint64(0); w < nw; w++ {
		word := b.words[w]
		if w == nw-1 {
			if rem := b.n & wordMask; rem != 0 {
				word &= 1<<rem - 1
			}
		}
		for word != 0 {
			t := word & -word
			pos := w*wordBits + uint64(bits.TrailingZeros64(word))
			if !fn(pos) {
				return
			}
			word ^= t
		}
	}
}

// SetBits returns the positions of all set bits in ascending order.
func (b *Bitmap) SetBits() []uint64 {
	out := make([]uint64, 0, b.Count())
	b.ForEachSet(func(pos uint64) bool {
		out = append(out, pos)
		return true
	})
	return out
}
