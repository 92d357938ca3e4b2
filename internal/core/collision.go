package core

import (
	"sync"
	"sync/atomic"

	"patchindex/internal/bloom"
)

// Sharded NUC collision state. The paper makes uniqueness a GLOBAL
// property with per-partition exceptions (Section 5.1), which forces its
// insert-handling collision join to probe every partition — a per-table
// serialization point on the update path. NUCState shards
// that collision knowledge by partition so an insert into partition p
// can usually decide "does this value collide?" from p-local state plus
// two read-only global digests:
//
//   - localInt/localStr[p]: value → occurrence count within partition p.
//     Owned by whoever owns partition p under the engine's locking
//     protocol (partition lock, or the exclusive structure lock). A
//     local hit means the collision is entirely p-local: the existing
//     occurrences and the new tuple all become patches of partition p's
//     index.
//   - sealed: an immutable snapshot of the global exception set — the
//     values once found duplicated, for which the engine maintains the
//     invariant that every LIVE occurrence is a patch: discovery and
//     collision handling patch all occurrences at sealing time, patch
//     marks are never removed from surviving rows, and the engine's
//     exclusive insert/modify paths force-patch any fresh occurrence
//     of a sealed value (deletes may have eroded the value back to
//     uniqueness, so a collision check alone would leave it
//     unpatched). Colliding with a sealed value therefore needs no
//     cross-partition write: only the NEW tuple becomes a patch,
//     locally. The snapshot is swapped copy-on-write and read
//     lock-free through an atomic pointer.
//   - blooms[p]: an add-only Bloom filter over partition p's values.
//     Probing the filters of the OTHER partitions answers "may this
//     value exist elsewhere as a unique occurrence?" — a hit is a
//     cross-partition candidate collision, on which the caller falls
//     back to the exclusive lock and the exact counts of every
//     partition. False positives cost a redundant fallback; false
//     negatives cannot occur (the filter only ever grows), so no
//     violation is missed.
//
// # The in-flight pre-publication ledger
//
// A filter is not purely add-only: when its add count outgrows its
// sizing, it is REBUILT from the live value counts (RebuildBloomPartition
// / RebuildOverfullBlooms). That rebuild races the insert fast path's
// optimistic pre-publication: a batch adds its values to the target
// partition's filter BEFORE committing them to the count maps, so a
// rebuild sourced from the counts alone would drop the pre-published
// bits — and a batch racing the pre-publisher could miss the collision
// the ordering protocol promises it will see. Every pre-published value
// therefore also enters the partition's in-flight ledger (a small
// mutex-guarded refcount map) and leaves it only after its count-map
// commit; a rebuild re-applies the ledgered values into the fresh
// filter under the ledger mutex before atomically swapping the filter
// pointer in. The ordering makes the window airtight: PrePublish
// ledgers first (under the mutex), then loads the filter pointer —
// so a pre-publisher either lands its bit in the filter a rebuild
// keeps, or its ledger entry is visible to the rebuild's re-apply
// scan, or it loads the already-swapped fresh filter.
//
// Synchronization is the caller's job and mirrors the engine's insert
// protocol: local maps follow partition ownership; sealed-set swaps
// happen lock-free from anywhere; filter probes, pre-publication, and
// Unpublish are safe from any context; plain AddBloom and the filter
// rebuilds require owning the target partition (rebuilds additionally
// rely on partition ownership to serialize against each other).
// Sealed() alone is safe from anywhere.
type NUCState struct {
	localInt []map[int64]uint32
	localStr []map[string]uint32
	isString bool

	blooms   []atomic.Pointer[partitionBloom]
	inflight []inflightLedger

	sealed atomic.Pointer[NUCExceptions]
}

// partitionBloom bundles one partition's filter with the
// expected-element sizing it was built for, so the pair swaps
// atomically on rebuild.
type partitionBloom struct {
	f   *bloom.Filter
	cap int
}

// inflightLedger tracks one partition's pre-published-but-uncommitted
// filter keys: bloom key → number of in-flight batches carrying it. The
// mutex is leaf-level: nothing is acquired under it.
type inflightLedger struct {
	mu   sync.Mutex // lock-rank: none leaf lock, nothing is acquired under it
	keys map[int64]int
}

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
type NUCExceptions struct {
	ints []map[int64]struct{}
	strs []map[string]struct{}
}

// sealMergeFactor is the size ratio kept between adjacent levels of a
// NUCExceptions snapshot.
const sealMergeFactor = 8

// containsLevel reports whether any level holds v.
func containsLevel[T comparable](levels []map[T]struct{}, v T) bool {
	for _, m := range levels {
		if _, ok := m[v]; ok {
			return true
		}
	}
	return false
}

// sealLevels returns levels grown by the values of vals they do not hold
// yet, or grew=false when there are none. The input levels are shared
// with the result, never written.
func sealLevels[T comparable](levels []map[T]struct{}, vals []T) (out []map[T]struct{}, grew bool) {
	var fresh map[T]struct{}
	for _, v := range vals {
		if containsLevel(levels, v) {
			continue
		}
		if fresh == nil {
			fresh = make(map[T]struct{}, len(vals))
		}
		fresh[v] = struct{}{}
	}
	if fresh == nil {
		return levels, false
	}
	n := len(levels)
	for n > 0 && len(levels[n-1]) < sealMergeFactor*len(fresh) {
		for v := range levels[n-1] {
			fresh[v] = struct{}{}
		}
		n--
	}
	return append(levels[:n:n], fresh), true
}

// ContainsInt64 reports whether v is a sealed duplicated value.
func (e *NUCExceptions) ContainsInt64(v int64) bool { return containsLevel(e.ints, v) }

// ContainsString reports whether v is a sealed duplicated value.
func (e *NUCExceptions) ContainsString(v string) bool { return containsLevel(e.strs, v) }

// Len returns the number of sealed duplicated values.
func (e *NUCExceptions) Len() int {
	var n int
	for _, m := range e.ints {
		n += len(m)
	}
	for _, m := range e.strs {
		n += len(m)
	}
	return n
}

// hashString folds a string value into the int64 key space of the Bloom
// filters (inline FNV-1a — the hasher object and []byte conversion of
// the stdlib version would allocate twice per probe on the lock-free
// hot path). Collisions only produce false positives (redundant
// fallbacks), never missed violations.
func hashString(v string) int64 {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for i := 0; i < len(v); i++ {
		h ^= uint64(v[i])
		h *= 1099511628211 // FNV-1a prime
	}
	return int64(h)
}

// bloomFor sizes a fresh partition filter: four times the live value
// count, floored so small partitions leave growth headroom. The target
// false-positive rate is far tighter than the user-facing join-skip
// filters' 1% because a batch probes every foreign partition for every
// inserted value — at 1% a 64-row batch would fall back almost always,
// while at ~24 bits/value (still a fraction of the count maps' memory)
// the per-batch fallback probability stays in the low percents even at
// full load and becomes negligible right after a rebuild. The 4x
// headroom halves the number of saturation→rebuild cycles an insert
// stream goes through relative to 2x.
func bloomFor(n int) *partitionBloom {
	capn := 4 * n
	if capn < 1024 {
		capn = 1024
	}
	return &partitionBloom{f: bloom.New(capn, 1e-5), cap: capn}
}

// NewNUCStateInt64 builds the collision state of an int64 column from
// its per-partition value counts (as produced by CountNUCValuesInt64 —
// index discovery and state construction share the counting pass). It
// takes ownership of the maps: they become the state's partition-local
// counts, so the caller must not touch them afterwards.
func NewNUCStateInt64(counts []map[int64]uint32) *NUCState {
	st := newNUCState(len(counts))
	st.localInt = counts
	for p, c := range counts {
		var n int
		for _, k := range c {
			n += int(k)
		}
		pb := bloomFor(n)
		for v := range c {
			pb.f.Add(v)
		}
		st.blooms[p].Store(pb)
	}
	st.sealed.Store(&NUCExceptions{ints: []map[int64]struct{}{MergeNUCDuplicatesInt64(counts)}})
	return st
}

// NewNUCStateString is NewNUCStateInt64 for string columns.
func NewNUCStateString(counts []map[string]uint32) *NUCState {
	st := newNUCState(len(counts))
	st.localStr, st.isString = counts, true
	for p, c := range counts {
		var n int
		for _, k := range c {
			n += int(k)
		}
		pb := bloomFor(n)
		for v := range c {
			pb.f.Add(hashString(v))
		}
		st.blooms[p].Store(pb)
	}
	st.sealed.Store(&NUCExceptions{strs: []map[string]struct{}{MergeNUCDuplicatesString(counts)}})
	return st
}

func newNUCState(nparts int) *NUCState {
	st := &NUCState{
		blooms:   make([]atomic.Pointer[partitionBloom], nparts),
		inflight: make([]inflightLedger, nparts),
	}
	for p := range st.inflight {
		st.inflight[p].keys = make(map[int64]int)
	}
	return st
}

// NumPartitions returns the partition count the state is sharded over.
func (st *NUCState) NumPartitions() int { return len(st.blooms) }

// IsString reports whether the state tracks a string column.
func (st *NUCState) IsString() bool { return st.isString }

// Sealed returns the current immutable exception-set snapshot. Safe to
// call from any context; the snapshot stays valid (and conservatively
// correct) forever.
func (st *NUCState) Sealed() *NUCExceptions { return st.sealed.Load() }

// LocalCountInt64 returns partition p's occurrence count of v. The
// caller owns partition p.
func (st *NUCState) LocalCountInt64(p int, v int64) uint32 { return st.localInt[p][v] }

// LocalCountString is LocalCountInt64 for string columns.
func (st *NUCState) LocalCountString(p int, v string) uint32 { return st.localStr[p][v] }

// AddLocalInt64 records one inserted occurrence of v in partition p. The
// caller owns partition p.
func (st *NUCState) AddLocalInt64(p int, v int64) { st.localInt[p][v]++ }

// AddLocalString is AddLocalInt64 for string columns.
func (st *NUCState) AddLocalString(p int, v string) { st.localStr[p][v]++ }

// RemoveLocalInt64 records one deleted (or modified-away) occurrence of
// v in partition p, dropping the entry at zero so bloom rebuilds see
// only live values. The caller owns partition p.
func (st *NUCState) RemoveLocalInt64(p int, v int64) {
	if n := st.localInt[p][v]; n <= 1 {
		delete(st.localInt[p], v)
	} else {
		st.localInt[p][v] = n - 1
	}
}

// RemoveLocalString is RemoveLocalInt64 for string columns.
func (st *NUCState) RemoveLocalString(p int, v string) {
	if n := st.localStr[p][v]; n <= 1 {
		delete(st.localStr[p], v)
	} else {
		st.localStr[p][v] = n - 1
	}
}

// PartitionMayContainInt64 probes partition q's Bloom filter for v with
// a lock-free atomic read. A false answer is definitive for values
// whose adds happened-before the probe; for adds racing the probe, the
// insert protocol's pre-publication ordering (ledger and add your own
// values before probing for foreign ones — sync/atomic's sequential
// consistency forbids two racing batches from both missing each other)
// supplies the guarantee.
func (st *NUCState) PartitionMayContainInt64(q int, v int64) bool {
	return st.blooms[q].Load().f.MayContainConcurrent(v)
}

// PartitionMayContainString is PartitionMayContainInt64 for string
// columns.
func (st *NUCState) PartitionMayContainString(q int, v string) bool {
	return st.blooms[q].Load().f.MayContainConcurrent(hashString(v))
}

// AddBloomInt64 registers an inserted occurrence of v in partition p's
// filter, with atomic word updates — safe concurrently with probes. The
// caller owns partition p (which excludes a concurrent rebuild of p's
// filter); values added before their count-map commit must use
// PrePublish instead, or a rebuild may drop them.
func (st *NUCState) AddBloomInt64(p int, v int64) { st.blooms[p].Load().f.AddConcurrent(v) }

// AddBloomString is AddBloomInt64 for string columns.
func (st *NUCState) AddBloomString(p int, v string) {
	st.blooms[p].Load().f.AddConcurrent(hashString(v))
}

// prePublish ledgers one in-flight occurrence of key in partition p and
// sets its filter bits. The ledger entry precedes the filter load, so a
// concurrent rebuild either keeps the bits (re-applying the ledger) or
// this publisher lands them in the rebuilt filter itself.
func (st *NUCState) prePublish(p int, key int64) {
	led := &st.inflight[p]
	led.mu.Lock()
	led.keys[key]++
	led.mu.Unlock()
	st.blooms[p].Load().f.AddConcurrent(key)
}

// unpublish retires one in-flight occurrence of key in partition p. The
// filter bits stay (the filter is a superset structure); only the
// rebuild protection lapses, which is correct once the occurrence is
// committed to the count maps.
func (st *NUCState) unpublish(p int, key int64) {
	led := &st.inflight[p]
	led.mu.Lock()
	if n := led.keys[key]; n <= 1 {
		delete(led.keys, key)
	} else {
		led.keys[key] = n - 1
	}
	led.mu.Unlock()
}

// PrePublishInt64 registers an in-flight occurrence of v in partition
// p's filter AND its pre-publication ledger — the fast-path insert's
// publication primitive. Safe from any context (no partition ownership
// needed). The caller must pair it with exactly one UnpublishInt64
// after v's count-map commit (or after abandoning the batch under a
// lock that excludes rebuilds of p).
func (st *NUCState) PrePublishInt64(p int, v int64) { st.prePublish(p, v) }

// PrePublishString is PrePublishInt64 for string columns.
func (st *NUCState) PrePublishString(p int, v string) { st.prePublish(p, hashString(v)) }

// UnpublishInt64 retires one PrePublishInt64 registration.
func (st *NUCState) UnpublishInt64(p int, v int64) { st.unpublish(p, v) }

// UnpublishString retires one PrePublishString registration.
func (st *NUCState) UnpublishString(p int, v string) { st.unpublish(p, hashString(v)) }

// SealDuplicatesInt64 publishes newly duplicated values into a fresh
// exception-set snapshot (see NUCExceptions for its O(batch) amortised
// cost). The swap is a compare-and-swap loop, so concurrent sealers
// (parallel insert batches publishing at once) compose without a lock
// and without losing each other's values; concurrent Sealed() readers
// keep their older, still-correct snapshot.
func (st *NUCState) SealDuplicatesInt64(vals []int64) {
	for {
		old := st.sealed.Load()
		levels, grew := sealLevels(old.ints, vals)
		if !grew || st.sealed.CompareAndSwap(old, &NUCExceptions{ints: levels, strs: old.strs}) {
			return
		}
	}
}

// SealDuplicatesString is SealDuplicatesInt64 for string columns.
func (st *NUCState) SealDuplicatesString(vals []string) {
	for {
		old := st.sealed.Load()
		levels, grew := sealLevels(old.strs, vals)
		if !grew || st.sealed.CompareAndSwap(old, &NUCExceptions{ints: old.ints, strs: levels}) {
			return
		}
	}
}

// RebuildBloomPartition rebuilds partition p's filter when its add
// count outgrew its sizing, sourcing the fresh filter from the live
// value set of p's count map PLUS the in-flight pre-publication ledger,
// and swapping it in atomically. The caller owns partition p (partition
// lock, or the exclusive structure lock) — that ownership serializes
// rebuilds of p against each other and against count-map writers, so
// any occurrence missing from the counts still holds its ledger entry
// when the re-apply scan runs. Concurrent probes and pre-publications
// need no lock at all. Returns whether a rebuild happened.
func (st *NUCState) RebuildBloomPartition(p int) bool {
	cur := st.blooms[p].Load()
	if int(cur.f.Added()) <= cur.cap {
		return false
	}
	var n int
	if st.isString {
		for _, k := range st.localStr[p] {
			n += int(k)
		}
	} else {
		for _, k := range st.localInt[p] {
			n += int(k)
		}
	}
	pb := bloomFor(n)
	if st.isString {
		for v := range st.localStr[p] {
			pb.f.Add(hashString(v))
		}
	} else {
		for v := range st.localInt[p] {
			pb.f.Add(v)
		}
	}
	led := &st.inflight[p]
	led.mu.Lock()
	defer led.mu.Unlock()
	for k := range led.keys {
		pb.f.Add(k)
	}
	st.blooms[p].Store(pb)
	return true
}

// RebuildOverfullBlooms rebuilds every partition filter whose add count
// outgrew its sizing. Safe only where the caller owns EVERY partition
// (the exclusive structure lock); partition-scoped maintenance uses
// RebuildBloomPartition under one partition's lock instead.
func (st *NUCState) RebuildOverfullBlooms() {
	for p := range st.blooms {
		st.RebuildBloomPartition(p)
	}
}
