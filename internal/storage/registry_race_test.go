package storage

import (
	"sync"
	"testing"
)

// TestRegistryConcurrentOps interleaves every registry operation —
// Retain/Release (whole-table and partition-scoped), SetPartition,
// and the query methods — from concurrent goroutines. The registry
// paths only get sequential coverage elsewhere; under -race this pins
// that regMu alone makes them safe: SetPartition publishes swaps from
// one goroutine per partition (the engine's partition-lock discipline)
// while refs are retained, released, and queried from the others.
func TestRegistryConcurrentOps(t *testing.T) {
	const (
		parts  = 4
		rounds = 300
	)
	tb := registryTable(parts)

	var wg sync.WaitGroup

	// Whole-table snapshot churn.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				ref := tb.Retain()
				for p := 0; p < parts; p++ {
					tb.PartitionRetained(p)
				}
				tb.LiveSnapshotRefs()
				ref.Release()
				ref.Release() //pilint:ignore closeowner deliberate double release: the race test asserts idempotence under contention
			}
		}()
	}

	// Partition-scoped snapshot churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			p := i % parts
			ref := tb.RetainPartitions(p)
			tb.PartitionRetained(p)
			ref.Release()
		}
	}()

	// Generation swaps: one publisher per partition, mirroring the
	// engine's rule that SetPartition(p) is serialized per partition
	// (the publisher is the only goroutine reading Partition(p)).
	for p := 0; p < parts; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < rounds/10; i++ {
				tb.SetPartition(p, tb.Partition(p).Clone())
			}
		}(p)
	}

	wg.Wait()

	if got := tb.LiveSnapshotRefs(); got != 0 {
		t.Fatalf("LiveSnapshotRefs after all releases = %d, want 0", got)
	}
	for p := 0; p < parts; p++ {
		if tb.PartitionRetained(p) {
			t.Fatalf("partition %d still retained after all releases", p)
		}
	}
}
