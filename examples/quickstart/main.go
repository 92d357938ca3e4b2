// Quickstart: define a table with a dirty (nearly unique) column, create
// a PatchIndex on it, and compare the distinct query with and without
// the index — the smallest end-to-end tour of the public API.
package main

import (
	"fmt"
	"log"
	"time"

	"patchindex"
)

func main() {
	db := patchindex.NewDatabase()

	// A user table integrated from several sources: user IDs should be
	// unique, but a few duplicates slipped in.
	table, err := db.CreateTable("users", patchindex.Schema{
		{Name: "user_id", Kind: patchindex.KindInt64},
		{Name: "name", Kind: patchindex.KindString},
	}, 2)
	if err != nil {
		log.Fatal(err)
	}

	const n = 200_000
	rows := make([]patchindex.Row, 0, n)
	for i := 0; i < n; i++ {
		id := int64(i)
		if i%1000 == 999 { // 0.1% duplicates
			id = int64(i - 1)
		}
		rows = append(rows, patchindex.Row{patchindex.I64(id), patchindex.Str(fmt.Sprintf("user-%d", i))})
	}
	table.Load(rows)

	// A strict UNIQUE constraint would be rejected; an approximate one
	// materializes the exceptions instead.
	if err := table.CreatePatchIndex("user_id", patchindex.NearlyUnique, patchindex.IndexOptions{}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("created PatchIndex: exception rate %.4f, memory %d bytes\n",
		table.ExceptionRate("user_id"), table.IndexMemoryBytes("user_id"))

	// DISTINCT with and without the index.
	distinctIDs := patchindex.From("users", "user_id").Distinct("user_id")
	for _, mode := range []patchindex.PlanMode{patchindex.PlanReference, patchindex.PlanPatchIndex} {
		c, err := patchindex.Run(db, distinctIDs, patchindex.QueryOptions{Mode: mode})
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		count, err := patchindex.Count(c.Root)
		if err != nil {
			log.Fatal(err)
		}
		name := "reference plan "
		if mode == patchindex.PlanPatchIndex {
			name = "PatchIndex plan"
		}
		fmt.Printf("%s: %d distinct user ids in %v\n", name, count, time.Since(start))
	}

	// Updates keep the index consistent — insert a fresh id and a
	// duplicate.
	err = db.Insert("users", []patchindex.Row{
		{patchindex.I64(10_000_000), patchindex.Str("new-user")},
		{patchindex.I64(42), patchindex.Str("duplicate-of-42")},
	})
	if err != nil {
		log.Fatal(err)
	}
	c, err := patchindex.Run(db, distinctIDs, patchindex.QueryOptions{Mode: patchindex.PlanPatchIndex})
	if err != nil {
		log.Fatal(err)
	}
	count, _ := patchindex.Count(c.Root)
	fmt.Printf("after insert: %d distinct user ids, exception rate %.4f\n",
		count, table.ExceptionRate("user_id"))
}
