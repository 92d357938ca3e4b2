// Command pidemo is a guided tour of the PatchIndex: it builds a small
// dirty dataset, walks through discovery, the two index designs, the
// query optimizations and the update handling, printing each step.
package main

import (
	"bytes"
	"fmt"
	"log"

	"patchindex"
	"patchindex/internal/core"
)

func main() {
	fmt.Println("PatchIndex demo — updatable materialization of approximate constraints")
	fmt.Println()

	// A column that is nearly sorted: 1..N with a few corruptions.
	vals := []int64{1, 2, 3, 99, 4, 5, 6, 0, 7, 8}
	fmt.Println("column:", vals)

	patches, last, _ := core.DiscoverNSC(vals, false)
	fmt.Printf("NSC discovery: patches at rowIDs %v (values 99 and 0), sorted-run tail = %d\n", patches, last)

	for _, design := range []core.Design{core.DesignBitmap, core.DesignIdentifier} {
		x := core.New(core.NearlySorted, uint64(len(vals)), patches, core.Options{Design: design})
		fmt.Printf("%-14s memory=%3d B  e=%.2f  IsPatch(3)=%v IsPatch(4)=%v\n",
			design, x.MemoryBytes(), x.ExceptionRate(), x.IsPatch(3), x.IsPatch(4))
	}
	fmt.Println()

	// The same through the engine, with update handling.
	db := patchindex.NewDatabase()
	t, err := db.CreateTable("demo", patchindex.Schema{{Name: "v", Kind: patchindex.KindInt64}}, 1)
	if err != nil {
		log.Fatal(err)
	}
	rows := make([]patchindex.Row, len(vals))
	for i, v := range vals {
		rows[i] = patchindex.Row{patchindex.I64(v)}
	}
	t.Load(rows)
	if err := t.CreatePatchIndex("v", patchindex.NearlySorted, patchindex.IndexOptions{}); err != nil {
		log.Fatal(err)
	}

	// ORDER BY v as a logical plan; forcing the mode pins the patch plan
	// the cost model would not pick on ten rows (see the last section).
	byV := patchindex.From("demo", "v").OrderBy(patchindex.Asc("v"))
	sortedVia := func(opts patchindex.QueryOptions) ([]int64, *patchindex.Compiled) {
		c, err := patchindex.Run(db, byV, opts)
		if err != nil {
			log.Fatal(err)
		}
		sorted, err := patchindex.CollectInt64(c.Root)
		if err != nil {
			log.Fatal(err)
		}
		return sorted, c
	}
	sorted, _ := sortedVia(patchindex.QueryOptions{Mode: patchindex.PlanPatchIndex})
	fmt.Println("ORDER BY v via PatchIndex plan (merge of sorted run + sorted patches):")
	fmt.Println("  ", sorted)

	fmt.Println("\ninsert 9, 1 (9 extends the sorted run, 1 becomes a patch):")
	if err := db.Insert("demo", []patchindex.Row{{patchindex.I64(9)}, {patchindex.I64(1)}}); err != nil {
		log.Fatal(err)
	}
	x := t.PatchIndexes("v")[0]
	fmt.Printf("   patches now: %v, e=%.2f\n", x.Patches(), x.ExceptionRate())

	fmt.Println("\ndelete rowID 3 (the 99): tracking information is dropped, rowIDs shift:")
	if err := db.DeleteRowIDs("demo", 0, []uint64{3}); err != nil {
		log.Fatal(err)
	}
	// PatchIndexes hands out a frozen snapshot copy, so re-fetch to
	// observe the post-delete state rather than the earlier capture.
	x = t.PatchIndexes("v")[0]
	fmt.Printf("   patches now: %v, rows=%d\n", x.Patches(), x.Rows())

	sorted, _ = sortedVia(patchindex.QueryOptions{Mode: patchindex.PlanPatchIndex})
	fmt.Println("   ORDER BY v still correct:", sorted)

	// Checkpoint & recovery (Section 3.4).
	var buf bytes.Buffer
	if _, err := x.WriteTo(&buf); err != nil {
		log.Fatal(err)
	}
	size := buf.Len()
	var restored core.Index
	if _, err := restored.ReadFrom(&buf); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncheckpoint/recovery: %d bytes, restored index has %d patches over %d rows\n",
		size, restored.NumPatches(), restored.Rows())

	// The same plan with the choice left to the optimizer: it consults
	// the cost model with the index's live row and patch counts; on a
	// table this small the clone overhead of the patch plan never pays,
	// so it picks the full-scan reference plan — the Decisions record
	// shows the reasoning.
	sorted, c := sortedVia(patchindex.QueryOptions{})
	fmt.Println("\nFrom(demo, v).OrderBy(v) in Auto mode:")
	fmt.Println("  ", sorted)
	for _, d := range c.Decisions {
		fmt.Printf("   optimizer: %s -> %s (rows=%d patches=%d, forced=%v)\n",
			d.Node, d.Access, d.FactRows, d.Patches, d.Forced)
	}
}
