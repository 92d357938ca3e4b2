package core

import (
	"sync"
	"testing"
)

// emptyStateInt64 builds an int64 NUCState over nparts empty partitions.
func emptyStateInt64(nparts int) *NUCState {
	counts := make([]map[int64]uint32, nparts)
	for p := range counts {
		counts[p] = map[int64]uint32{}
	}
	return NewNUCStateInt64(counts)
}

// saturate drives partition p's filter past its sizing so the next
// rebuild call actually rebuilds, committing every value to the counts.
func saturate(st *NUCState, p int) {
	pb := st.blooms[p].Load()
	for v := int64(0); int(pb.f.Added()) <= pb.cap; v++ {
		st.AddLocalInt64(p, 1_000_000+v)
		st.AddBloomInt64(p, 1_000_000+v)
	}
}

// pendingPublications returns the number of distinct ledgered keys of
// partition p, for asserting that the ledger drains.
func pendingPublications(st *NUCState, p int) int {
	led := &st.inflight[p]
	led.mu.Lock()
	defer led.mu.Unlock()
	return len(led.keys)
}

// TestBloomRebuildPreservesPrePublished is the stale-Bloom regression:
// a batch pre-publishes its values into the partition filter BEFORE
// committing them to the count maps, and a filter rebuild sourced from
// the counts alone would silently drop those bits — a racing batch
// probing the rebuilt filter would miss the collision the
// pre-publication ordering promises it must see. The in-flight ledger
// closes the window: rebuilds re-apply ledgered values. Without the
// ledger re-apply, this test fails at the post-rebuild probe.
func TestBloomRebuildPreservesPrePublished(t *testing.T) {
	st := emptyStateInt64(2)
	saturate(st, 0)

	const inflight = int64(42) // pre-published, counts not yet committed
	st.PrePublishInt64(0, inflight)

	if !st.RebuildBloomPartition(0) {
		t.Fatalf("filter not saturated; rebuild did not run")
	}
	if !st.PartitionMayContainInt64(0, inflight) {
		t.Fatalf("rebuild dropped the pre-published in-flight value %d", inflight)
	}

	// Commit and retire the registration: the value must stay visible
	// through yet another rebuild, now via the counts.
	st.AddLocalInt64(0, inflight)
	st.UnpublishInt64(0, inflight)
	if n := pendingPublications(st, 0); n != 0 {
		t.Fatalf("ledger did not drain: %d pending", n)
	}
	saturate(st, 0)
	if !st.RebuildBloomPartition(0) {
		t.Fatalf("second rebuild did not run")
	}
	if !st.PartitionMayContainInt64(0, inflight) {
		t.Fatalf("committed value %d lost after post-commit rebuild", inflight)
	}
}

// TestBloomRebuildLedgerRefcounts: the same key pre-published by two
// in-flight batches stays rebuild-protected until BOTH retire it.
func TestBloomRebuildLedgerRefcounts(t *testing.T) {
	st := emptyStateInt64(1)
	const v = int64(7)
	st.PrePublishInt64(0, v)
	st.PrePublishInt64(0, v)
	st.UnpublishInt64(0, v)

	saturate(st, 0)
	if !st.RebuildBloomPartition(0) {
		t.Fatalf("rebuild did not run")
	}
	if !st.PartitionMayContainInt64(0, v) {
		t.Fatalf("value %d lost while one of two registrations was still in flight", v)
	}
	st.UnpublishInt64(0, v)
	if n := pendingPublications(st, 0); n != 0 {
		t.Fatalf("ledger did not drain: %d pending", n)
	}
}

// TestBloomRebuildRacingPrePublishers races pre-publishing committers
// against a continuous rebuilder under -race. Partition ownership is
// modeled by one mutex (the engine's pmu[p]); pre-publication and
// probes run outside it, exactly like the insert fast path. Transient
// values (added then deleted) keep the live count low while driving the
// filter's add count up, so rebuilds keep firing throughout the run.
// The invariant: a value is probe-visible from its PrePublish on — in
// flight, committed, across any number of rebuilds.
func TestBloomRebuildRacingPrePublishers(t *testing.T) {
	st := emptyStateInt64(2)
	var pmu sync.Mutex // stands in for the engine's partition 0 lock
	locked := func(fn func()) {
		pmu.Lock()
		defer pmu.Unlock()
		fn()
	}

	const (
		goroutines = 4
		iters      = 3000
	)
	stop := make(chan struct{})
	var rebuilds int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			locked(func() {
				if st.RebuildBloomPartition(0) {
					rebuilds++
				}
			})
		}
	}()

	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var permanent []int64
			for i := 0; i < iters; i++ {
				v := int64(g)*1_000_000_000 + int64(i)
				st.PrePublishInt64(0, v)
				if !st.PartitionMayContainInt64(0, v) {
					errs <- errInflightLost(v)
					return
				}
				locked(func() { st.AddLocalInt64(0, v) })
				st.UnpublishInt64(0, v)
				if i%8 == 0 {
					permanent = append(permanent, v)
				} else {
					locked(func() { st.RemoveLocalInt64(0, v) })
				}
				if i%64 == 0 {
					for _, pv := range permanent {
						if !st.PartitionMayContainInt64(0, pv) {
							errs <- errInflightLost(pv)
							return
						}
					}
				}
			}
			for _, pv := range permanent {
				if !st.PartitionMayContainInt64(0, pv) {
					errs <- errInflightLost(pv)
					return
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < goroutines; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if rebuilds == 0 {
		t.Fatalf("rebuilder never fired; the race window was not exercised")
	}
	if n := pendingPublications(st, 0); n != 0 {
		t.Fatalf("ledger did not drain: %d pending", n)
	}
}

type errInflightLost int64

func (e errInflightLost) Error() string {
	return "value lost from partition filter while live or in flight"
}
