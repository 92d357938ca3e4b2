// Sensorstream: a nearly sorted column in practice. Events from many
// sensors arrive roughly in timestamp order, but network retries deliver
// a small fraction late. A NSC PatchIndex makes ORDER BY timestamp
// queries skip the sort for the in-order bulk of the data, and trickle
// appends are handled incrementally instead of re-sorting.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"patchindex"
)

func main() {
	db := patchindex.NewDatabase()
	table, err := db.CreateTable("events", patchindex.Schema{
		{Name: "ts", Kind: patchindex.KindInt64},
		{Name: "sensor", Kind: patchindex.KindInt64},
		{Name: "reading", Kind: patchindex.KindFloat64},
	}, 4)
	if err != nil {
		log.Fatal(err)
	}

	// 500K events, ~2% delivered late (out of order).
	rng := rand.New(rand.NewSource(1))
	const n = 500_000
	rows := make([]patchindex.Row, 0, n)
	now := int64(1_700_000_000)
	for i := 0; i < n; i++ {
		ts := now + int64(i)
		if rng.Float64() < 0.02 {
			ts -= int64(rng.Intn(5000)) // a late arrival
		}
		rows = append(rows, patchindex.Row{
			patchindex.I64(ts),
			patchindex.I64(int64(rng.Intn(64))),
			patchindex.F64(rng.NormFloat64()),
		})
	}
	table.Load(rows)

	if err := table.CreatePatchIndex("ts", patchindex.NearlySorted, patchindex.IndexOptions{
		RecomputeThreshold: 0.25,
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("NSC PatchIndex on events.ts: exception rate %.4f\n", table.ExceptionRate("ts"))

	// ORDER BY ts: the PatchIndex plan sorts only the late arrivals and
	// merges them into the already-ordered stream.
	byTime := patchindex.From("events", "ts").OrderBy(patchindex.Asc("ts"))
	for _, mode := range []patchindex.PlanMode{patchindex.PlanReference, patchindex.PlanPatchIndex} {
		c, err := patchindex.Run(db, byTime, patchindex.QueryOptions{Mode: mode})
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		got, err := patchindex.CollectInt64(c.Root)
		if err != nil {
			log.Fatal(err)
		}
		for i := 1; i < len(got); i++ {
			if got[i] < got[i-1] {
				log.Fatalf("result not sorted at %d", i)
			}
		}
		name := map[patchindex.PlanMode]string{
			patchindex.PlanReference:  "full sort      ",
			patchindex.PlanPatchIndex: "PatchIndex plan",
		}[mode]
		fmt.Printf("%s: %d events ordered in %v\n", name, len(got), time.Since(start))
	}

	// Live appends: mostly in order, the occasional straggler becomes a
	// patch — no re-sort, no index rebuild.
	for batch := 0; batch < 5; batch++ {
		var ins []patchindex.Row
		for i := 0; i < 1000; i++ {
			ts := now + int64(n+batch*1000+i)
			if rng.Float64() < 0.02 {
				ts -= int64(rng.Intn(5000))
			}
			ins = append(ins, patchindex.Row{
				patchindex.I64(ts), patchindex.I64(7), patchindex.F64(0),
			})
		}
		if err := db.Insert("events", ins); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("after 5000 appended events: exception rate %.4f (monitor threshold 0.25)\n",
		table.ExceptionRate("ts"))
	for _, x := range table.PatchIndexes("ts") {
		if x.NeedsRecompute() {
			fmt.Println("a partition index requests recomputation")
		}
	}
}
