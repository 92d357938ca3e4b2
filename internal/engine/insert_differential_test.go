package engine

import (
	"flag"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"patchindex/internal/core"
	"patchindex/internal/storage"
)

var (
	insDiffSeed  = flag.Int64("insdiff.seed", 1, "first of the six seeds of the insert-vs-join differential schedules")
	insDiffSteps = flag.Int("insdiff.steps", 30, "steps per insert-vs-join differential schedule")
)

// partitionPatches returns each partition's patch rowIDs of column.
func partitionPatches(t *Table, column string) [][]uint64 {
	idx := t.PatchIndexes(column)
	out := make([][]uint64, len(idx))
	for p, x := range idx {
		out[p] = x.Patches()
	}
	return out
}

// TestInsertRowsDifferentialVsInsert pins both insert entry points to
// the paper's insert handling. The same seeded insert/delete/modify
// schedule runs on three twin tables: the reference goes through the
// test-only oracles (insertViaJoin — the Fig. 5 collision join against
// every partition — and modifyViaJoin), one twin through Insert, one
// through InsertRows. After every step both twins must equal the
// reference in contents, per-partition patch sets, collision-state
// counts and sealed set, and the counts must equal the table. Values are
// drawn from a small domain so real cross-partition collisions (the hard
// case of the exact classification) occur constantly; odd seeds leave
// deltas pending with AutoCheckpoint off. Every schedule runs on a
// BIGINT and on a string NUC column and with both index designs.
func TestInsertRowsDifferentialVsInsert(t *testing.T) {
	const parts, domain = 4, 60
	for _, design := range []core.Design{core.DesignBitmap, core.DesignIdentifier} {
		for seed := *insDiffSeed; seed < *insDiffSeed+6; seed++ {
			t.Run(fmt.Sprintf("design=%v/seed=%d", design, seed), func(t *testing.T) {
				for _, k := range nucKinds {
					t.Run(k.name, func(t *testing.T) {
						rng := rand.New(rand.NewSource(seed))
						// val(d) is the column value of domain index d (built
						// once: compare walks every index used so far).
						var vals []storage.Value
						val := func(d int) storage.Value {
							for len(vals) <= d {
								vals = append(vals, k.mk(len(vals)))
							}
							return vals[d]
						}
						db := newDB(t)
						db.AutoCheckpoint = seed%2 == 0
						base := make([]storage.Row, 40+rng.Intn(40))
						for i := range base {
							base[i] = storage.Row{val(rng.Intn(domain))} // dense: seeds duplicates
						}
						twin := func(name string) *Table {
							tb, err := db.CreateTable(name, storage.Schema{{Name: "v", Kind: k.kind}}, parts)
							if err != nil {
								t.Fatal(err)
							}
							if err := tb.Load(base); err != nil {
								t.Fatal(err)
							}
							if err := tb.CreatePatchIndex("v", core.NearlyUnique, tinyOpts(design)); err != nil {
								t.Fatal(err)
							}
							return tb
						}
						ref := twin("ref") // the paper's join
						twins := []*Table{twin("insert"), twin("insertrows")}
						all := append([]*Table{ref}, twins...)
						used := domain // domain values below this were drawn at least once

						isSealed := func(tb *Table, d int) bool { return nucSealed(tb, val(d)) }
						localCount := func(tb *Table, p, d int) uint32 { return nucLocalCount(tb, p, val(d)) }
						compare := func(step string) {
							t.Helper()
							rp := partitionPatches(ref, "v")
							for _, tb := range twins {
								tp := partitionPatches(tb, "v")
								for p := 0; p < parts; p++ {
									rv, tv := partitionColumn(ref, p), partitionColumn(tb, p)
									if !slices.Equal(rv, tv) {
										t.Fatalf("%s: partition %d contents diverged:\njoin %v\n%s %v", step, p, rv, tb.name, tv)
									}
									if !slices.Equal(rp[p], tp[p]) {
										t.Fatalf("%s: partition %d patch sets diverged: join=%v %s=%v (values %v)", step, p, rp[p], tb.name, tp[p], tv)
									}
									occurs := make(map[storage.Value]uint32)
									for _, v := range tv {
										occurs[v]++
									}
									for d := 0; d < used; d++ {
										cr, ct := localCount(ref, p, d), localCount(tb, p, d)
										if cr != ct || ct != occurs[val(d)] {
											t.Fatalf("%s: partition %d counts of %v: join=%d %s=%d, table holds %d",
												step, p, val(d), cr, tb.name, ct, occurs[val(d)])
										}
									}
								}
								for d := 0; d < used; d++ {
									if sr, st := isSealed(ref, d), isSealed(tb, d); sr != st {
										t.Fatalf("%s: value %v sealed: join=%v %s=%v", step, val(d), sr, tb.name, st)
									}
								}
								if lr, lt := ref.nuc["v"].Sealed().Len(), tb.nuc["v"].Sealed().Len(); lr != lt {
									t.Fatalf("%s: sealed set sizes diverged: join=%d %s=%d", step, lr, tb.name, lt)
								}
							}
						}
						compare("after discovery")

						var foreign int // inserted values that really collided across partitions
						for i := 0; i < *insDiffSteps; i++ {
							step := fmt.Sprintf("step %d", i)
							p := rng.Intn(parts)
							cur := partitionColumn(ref, p)
							switch op := rng.Intn(10); {
							case op < 6: // insert a batch, collisions likely
								rows := make([]storage.Row, 1+rng.Intn(8))
								for j := range rows {
									d := rng.Intn(domain)
									if rng.Intn(3) == 0 {
										d, used = used, used+1 // fresh unique
									}
									rows[j] = storage.Row{val(d)}
									for q := 0; q < parts && !isSealed(ref, d); q++ {
										if q != j%parts && localCount(ref, q, d) > 0 {
											foreign++
										}
									}
								}
								if err := insertViaJoin(db, ref, rows); err != nil {
									t.Fatal(err)
								}
								if err := db.Insert("insert", rows); err != nil {
									t.Fatal(err)
								}
								if err := db.InsertRows("insertrows", rows); err != nil {
									t.Fatal(err)
								}
							case op < 8 && len(cur) > 0: // delete the same rowIDs
								var rids []uint64
								for r := rng.Intn(3); r < len(cur); r += 1 + rng.Intn(4) {
									rids = append(rids, uint64(r))
								}
								for _, tb := range all {
									if err := db.DeleteRowIDs(tb.name, p, rids); err != nil {
										t.Fatal(err)
									}
								}
							case op < 9 && len(cur) > 0: // modify the NUC column at the same position
								rids := []uint64{uint64(rng.Intn(len(cur)))}
								news := []storage.Value{val(rng.Intn(domain))}
								if err := modifyViaJoin(db, ref, p, rids, "v", news); err != nil {
									t.Fatal(err)
								}
								for _, tb := range twins {
									if err := db.Modify(tb.name, p, rids, "v", news); err != nil {
										t.Fatal(err)
									}
								}
							default: // propagate the pending deltas
								for _, tb := range all {
									tb.Checkpoint()
								}
							}
							compare(step)
						}

						for _, tb := range all {
							for _, x := range tb.PatchIndexes("v") {
								if err := x.Validate(); err != nil {
									t.Fatal(err)
								}
							}
						}
						if ref.CollisionJoins() == 0 || foreign == 0 {
							t.Fatalf("the oracle ran %d joins and %d inserted values collided across partitions; the differential run proved nothing",
								ref.CollisionJoins(), foreign)
						}
					})
				}
			})
		}
	}
}
