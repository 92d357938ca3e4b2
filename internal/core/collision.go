package core

import (
	"slices"
	"sync"
	"sync/atomic"
)

// The NUC collision directory. The paper makes uniqueness a GLOBAL
// property with per-partition exceptions and resolves insert collisions
// exactly (Section 5.1, Fig. 5): its insert-handling join probes every
// partition for the inserted values. NUCState answers the same question
// — "where else does v live?" — from an exact directory instead, so an
// update scans only the partitions that really hold a colliding value:
//
//   - the directory: value → live occurrences per partition, for every
//     value the column holds, guarded by one mutex. The engine keeps one
//     invariant: partition p's counts change only while p is owned (its
//     partition lock, or the exclusive structure lock). A writer that
//     holds q and finds v counted there therefore sees committed rows. A
//     count in a partition it does NOT hold may be another writer's
//     reservation (Reserve) whose rows are not applied yet; the writer
//     waits it out by taking that partition's lock and looking again.
//   - sealed: an immutable snapshot of the global exception set — the
//     values once found duplicated, for which the engine maintains the
//     invariant that every LIVE occurrence is a patch: discovery and
//     collision handling patch all occurrences at sealing time, patch
//     marks are never removed from surviving rows, and every insert and
//     modify force-patches a fresh occurrence of a sealed value (deletes
//     may have eroded the value back to uniqueness, so a collision check
//     alone would leave it unpatched). Colliding with a sealed value
//     therefore needs no lookup and no foreign write: only the NEW tuple
//     becomes a patch. The snapshot is swapped copy-on-write and read
//     lock-free through an atomic pointer.
//
// A lookup is one map probe per value, whatever the partition count:
// nearly every value of a NUC column lives in one partition, so the map
// keeps that partition and its count inline, and only a value that
// several partitions hold gets a per-partition count vector. One mutex
// serves every partition; the engine holds it for one chunk's lookup or
// count update at a time, never across table work.
type NUCState[T int64 | string] struct {
	mu      sync.Mutex // lock-rank: 35 — the directory; taken under partition or structure locks, nothing is acquired under it
	nparts  int
	homes   map[T]home     // value → its live occurrences
	several map[T][]uint32 // value → live count per partition, for the values homes marks shared

	sealed atomic.Pointer[NUCExceptions[T]]
}

// home is where a directory value lives: n occurrences in partition
// part, or, when part is shared, the counts NUCState.several holds.
type home struct {
	part int32
	n    uint32
}

const shared = -1

// NUCExceptions is one immutable snapshot of the sealed global exception
// set. It is never mutated after publication; NUCState swaps in a fresh
// snapshot to grow it.
//
// A snapshot is a short stack of immutable, pairwise disjoint levels,
// largest first: the base built at discovery plus the overlays sealed
// since. Growing the set allocates only a new last level holding the
// fresh values and folds into it every trailing level less than
// sealMergeFactor times its size, so level sizes fall geometrically
// (at most log_8(n)+1 of them, which bounds a lookup) and every value is
// re-copied O(log n) times over the life of the set — publishing a batch
// costs O(batch) amortised, not a copy of the whole set. Older snapshots
// keep the levels they were built from, which nobody mutates.
type NUCExceptions[T int64 | string] struct {
	levels []map[T]struct{}
}

// sealMergeFactor is the size ratio kept between adjacent levels of a
// NUCExceptions snapshot.
const sealMergeFactor = 8

// Contains reports whether v is a sealed duplicated value.
func (e *NUCExceptions[T]) Contains(v T) bool {
	for _, m := range e.levels {
		if _, ok := m[v]; ok {
			return true
		}
	}
	return false
}

// Len returns the number of sealed duplicated values.
func (e *NUCExceptions[T]) Len() int {
	var n int
	for _, m := range e.levels {
		n += len(m)
	}
	return n
}

// grow returns the levels of e grown by the values of vals it does not
// hold yet, or grew=false when there are none. e's levels are shared
// with the result, never written.
func (e *NUCExceptions[T]) grow(vals []T) (out *NUCExceptions[T], grew bool) {
	var fresh map[T]struct{}
	for _, v := range vals {
		if e.Contains(v) {
			continue
		}
		if fresh == nil {
			fresh = make(map[T]struct{}, len(vals))
		}
		fresh[v] = struct{}{}
	}
	if fresh == nil {
		return e, false
	}
	n := len(e.levels)
	for n > 0 && len(e.levels[n-1]) < sealMergeFactor*len(fresh) {
		for v := range e.levels[n-1] {
			fresh[v] = struct{}{}
		}
		n--
	}
	return &NUCExceptions[T]{levels: append(e.levels[:n:n], fresh)}, true
}

// NewNUCState builds the collision directory of a column from its
// values per partition (parts[p] is partition p's column) and seals
// every value it counts more than once overall.
func NewNUCState[T int64 | string](parts [][]T) *NUCState[T] {
	var total int
	for _, vals := range parts {
		total += len(vals)
	}
	st := &NUCState[T]{nparts: len(parts), homes: make(map[T]home, total), several: make(map[T][]uint32)}
	for p, vals := range parts {
		for _, v := range vals {
			st.add(p, v)
		}
	}
	dup := make(map[T]struct{})
	for v, h := range st.homes {
		if h.part == shared || h.n > 1 {
			dup[v] = struct{}{}
		}
	}
	st.sealed.Store(&NUCExceptions[T]{levels: []map[T]struct{}{dup}})
	return st
}

// Sealed returns the current immutable exception-set snapshot. Safe to
// call from any context; the snapshot stays valid (and conservatively
// correct) forever.
func (st *NUCState[T]) Sealed() *NUCExceptions[T] { return st.sealed.Load() }

// Count returns partition p's live occurrence count of v.
func (st *NUCState[T]) Count(p int, v T) uint32 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.count(p, v)
}

// count is Count for a caller holding st.mu. An absent value reads as
// the zero home, which counts nothing.
func (st *NUCState[T]) count(p int, v T) uint32 {
	switch h := st.homes[v]; {
	case h.part == shared:
		return st.several[v][p]
	case int(h.part) == p:
		return h.n
	}
	return 0
}

// add records one more occurrence of v in partition p. The caller holds
// st.mu (or owns st, during construction).
func (st *NUCState[T]) add(p int, v T) {
	switch h, ok := st.homes[v]; {
	case !ok:
		st.homes[v] = home{part: int32(p), n: 1}
	case h.part == shared:
		st.several[v][p]++
	case int(h.part) == p:
		st.homes[v] = home{part: h.part, n: h.n + 1}
	default: // a second partition: move v to a count vector
		c := make([]uint32, st.nparts)
		c[h.part], c[p] = h.n, 1
		st.several[v] = c
		st.homes[v] = home{part: shared}
	}
}

// remove records that one occurrence of v left partition p, dropping v
// once no partition counts it. The caller holds st.mu.
func (st *NUCState[T]) remove(p int, v T) {
	switch h, ok := st.homes[v]; {
	case !ok:
	case h.part == shared:
		c := st.several[v]
		if c[p] > 0 {
			c[p]--
		}
		if !slices.ContainsFunc(c, func(n uint32) bool { return n > 0 }) {
			delete(st.homes, v)
			delete(st.several, v)
		}
	case int(h.part) != p:
	case h.n <= 1:
		delete(st.homes, v)
	default:
		st.homes[v] = home{part: h.part, n: h.n - 1}
	}
}

// Reserve is the lookup of values entering partition p. Under the
// directory mutex it finds, for every vals[i] that is not sealed, each
// partition q counting a live occurrence of it (q == p included). A q
// the caller holds (held[q]) is reported as hit(i, q); a q it does not
// hold is returned in missing, once. When nothing is missing, the same
// critical section records vals in p's counts — the caller's
// reservation, which the caller applies or withdraws (Remove) before it
// releases p — so of two writers racing one value into different
// partitions, the second sees the first. When something is missing,
// nothing is recorded: the caller takes those partitions' locks and
// calls Reserve again. sealed is the snapshot the lookup skipped by.
func (st *NUCState[T]) Reserve(p int, vals []T, held []bool, hit func(i, q int)) (sealed *NUCExceptions[T], missing []int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	sealed = st.sealed.Load()
	found := func(i, q int) {
		switch {
		case held[q]:
			hit(i, q)
		case !slices.Contains(missing, q):
			missing = append(missing, q)
		}
	}
	for i, v := range vals {
		h, ok := st.homes[v]
		switch {
		case !ok || sealed.Contains(v):
		case h.part == shared:
			for q, n := range st.several[v] {
				if n > 0 {
					found(i, q)
				}
			}
		default:
			found(i, int(h.part))
		}
	}
	if missing == nil {
		for _, v := range vals {
			st.add(p, v)
		}
	}
	return sealed, missing
}

// Remove records that one occurrence of each of vals left partition p
// (deleted, modified away, or a reservation withdrawn). The caller owns
// partition p.
func (st *NUCState[T]) Remove(p int, vals []T) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, v := range vals {
		st.remove(p, v)
	}
}

// Patches returns the positions of partition p's column vals that must
// be patches by the directory alone: a sealed value, or one p counts
// more than once. Right after NewNUCState that is exactly the global
// NUC patch set; later it is a superset (the sealed set is monotone).
// The caller owns partition p; the scan holds the directory mutex
// throughout, so it runs only on index (re)builds, never per update.
func (st *NUCState[T]) Patches(p int, vals []T) []uint64 {
	sealed := st.Sealed()
	st.mu.Lock()
	defer st.mu.Unlock()
	var out []uint64
	for r, v := range vals {
		if sealed.Contains(v) || st.count(p, v) > 1 {
			out = append(out, uint64(r))
		}
	}
	return out
}

// Seal publishes newly duplicated values into a fresh exception-set
// snapshot (see NUCExceptions for its O(batch) amortised cost). The swap
// is a compare-and-swap loop, so concurrent sealers compose without a
// lock and without losing each other's values; concurrent Sealed()
// readers keep their older, still-correct snapshot.
func (st *NUCState[T]) Seal(vals []T) {
	for {
		old := st.sealed.Load()
		next, grew := old.grow(vals)
		if !grew || st.sealed.CompareAndSwap(old, next) {
			return
		}
	}
}
