// Weblogs: session IDs in a web log are nearly unique — most requests
// open a fresh session, but bots and page reloads reuse IDs. The NUC
// PatchIndex answers "how many distinct sessions" without the expensive
// aggregation for the unique bulk, stays correct under trickle inserts,
// and is compared here against a materialized view that must be
// refreshed on every batch (the paper's Fig. 9 effect).
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
	table, err := db.CreateTable("requests", patchindex.Schema{
		{Name: "session_id", Kind: patchindex.KindInt64},
		{Name: "path", Kind: patchindex.KindString},
		{Name: "latency_us", Kind: patchindex.KindInt64},
	}, 4)
	if err != nil {
		log.Fatal(err)
	}

	rng := rand.New(rand.NewSource(2))
	paths := []string{"/", "/login", "/cart", "/checkout", "/search"}
	const n = 300_000
	rows := make([]patchindex.Row, 0, n)
	nextSession := int64(1)
	for i := 0; i < n; i++ {
		sid := nextSession
		nextSession++
		if rng.Float64() < 0.05 { // 5% of requests reuse a session
			sid = 1 + rng.Int63n(nextSession)
		}
		rows = append(rows, patchindex.Row{
			patchindex.I64(sid),
			patchindex.Str(paths[rng.Intn(len(paths))]),
			patchindex.I64(100 + rng.Int63n(5000)),
		})
	}
	table.Load(rows)

	if err := table.CreatePatchIndex("session_id", patchindex.NearlyUnique, patchindex.IndexOptions{}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("NUC PatchIndex on requests.session_id: exception rate %.4f, memory %.1f KB\n",
		table.ExceptionRate("session_id"), float64(table.IndexMemoryBytes("session_id"))/1024)

	sessions := patchindex.From("requests", "session_id").Distinct("session_id")
	countDistinct := func(mode patchindex.PlanMode) (int, time.Duration) {
		c, err := patchindex.Run(db, sessions, patchindex.QueryOptions{Mode: mode})
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		n, err := patchindex.Count(c.Root)
		if err != nil {
			log.Fatal(err)
		}
		return n, time.Since(start)
	}
	cRef, tRef := countDistinct(patchindex.PlanReference)
	cPI, tPI := countDistinct(patchindex.PlanPatchIndex)
	if cRef != cPI {
		log.Fatalf("plans disagree: %d vs %d", cRef, cPI)
	}
	fmt.Printf("distinct sessions: %d (reference %v, PatchIndex %v)\n", cRef, tRef, tPI)

	// Trickle inserts: 20 batches of 50 requests. The PatchIndex handles
	// each batch from its collision directory (scanning only partitions
	// that hold a colliding value) — no recomputation.
	start := time.Now()
	for batch := 0; batch < 20; batch++ {
		var ins []patchindex.Row
		for i := 0; i < 50; i++ {
			sid := nextSession
			nextSession++
			if rng.Float64() < 0.05 {
				sid = 1 + rng.Int63n(nextSession)
			}
			ins = append(ins, patchindex.Row{
				patchindex.I64(sid), patchindex.Str("/"), patchindex.I64(250),
			})
		}
		if err := db.Insert("requests", ins); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("1000 trickle-inserted requests maintained in %v (e now %.4f)\n",
		time.Since(start), table.ExceptionRate("session_id"))

	// Sessions expire: delete the oldest 10% by session id. Delete
	// handling just drops tracking information (bulk delete on the
	// sharded bitmap).
	start = time.Now()
	cutoff := int64(n / 10)
	deleted, err := db.DeleteWhereInt64("requests", "session_id", func(v int64) bool { return v <= cutoff })
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deleted %d expired requests in %v\n", deleted, time.Since(start))

	cRef, _ = countDistinct(patchindex.PlanReference)
	cPI, _ = countDistinct(patchindex.PlanPatchIndex)
	if cRef != cPI {
		log.Fatalf("plans disagree after updates: %d vs %d", cRef, cPI)
	}
	fmt.Printf("distinct sessions after expiry: %d (both plans agree)\n", cPI)
}
