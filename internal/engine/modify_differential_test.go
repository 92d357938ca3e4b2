package engine

import (
	"flag"
	"fmt"
	"math/rand"
	"testing"

	"patchindex/internal/core"
	"patchindex/internal/storage"
)

var (
	modDiffSeed  = flag.Int64("moddiff.seed", 1, "first of the six seeds of the Modify-vs-join differential schedules")
	modDiffSteps = flag.Int("moddiff.steps", 60, "steps per Modify-vs-join differential schedule")
)

// modifyViaJoin is the paper's NUC modify handling (Section 5.2), kept
// as the oracle for Modify: apply the delta, run the collision join of
// Fig. 5 over the new values against every partition, merge both join
// sides into the patches, then re-point the collision directory and
// force-patch rows whose new value was sealed.
func modifyViaJoin(db *Database, t *Table, partition int, rowIDs []uint64, column string, values []storage.Value) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	col := t.store.Schema().MustColumnIndex(column)
	view := t.viewLocked(partition)
	olds := make([]storage.Value, len(rowIDs))
	for i, r := range rowIDs {
		olds[i] = view.Get(int(r), col)
	}
	t.modifyDeltaLocked(partition, rowIDs, col, values)
	changed := make([]changedRef, len(rowIDs))
	for i, r := range rowIDs {
		changed[i] = changedRef{part: partition, rid: r, val: values[i].I}
	}
	joins, err := t.nucModifyCollisions(col, changed)
	if err != nil {
		return err
	}
	idx := t.mutableIndexesLocked(column)
	for p := range idx {
		idx[p].HandleModifyNUC(joins[p])
	}
	news := make([][]storage.Value, len(idx))
	news[partition] = values
	var forced []uint64
	for i, was := range foldJoined(t, column, partition, olds, news)[partition] {
		if was {
			forced = append(forced, rowIDs[i])
		}
	}
	idx[partition].AddPatches(forced)
	if db.AutoCheckpoint {
		t.checkpointPartitionLocked(partition)
	}
	return nil
}

// nucModifyCollisions is the modify handling query: nucCollisions for
// BIGINT columns; string columns cannot reuse stringCollisions'
// positional assumptions (the changed tuples are not at the end), so
// they use a direct lookup.
func (t *Table) nucModifyCollisions(col int, changed []changedRef) ([]core.NUCJoinResult, error) {
	if t.store.Schema()[col].Kind != storage.KindString {
		return t.nucCollisions(col, changed, nil)
	}
	t.collisionJoins.Add(1)
	nparts := t.store.NumPartitions()
	out := make([]core.NUCJoinResult, nparts)
	type ref struct {
		part int
		rid  uint64
	}
	byVal := make(map[string][]ref)
	for p := 0; p < nparts; p++ {
		for i, v := range t.viewLocked(p).MaterializeString(col) {
			byVal[v] = append(byVal[v], ref{part: p, rid: uint64(i)})
		}
	}
	for _, c := range changed {
		v := t.viewLocked(c.part).Get(int(c.rid), col).S
		self := ref{part: c.part, rid: c.rid}
		for _, r := range byVal[v] {
			if r == self {
				continue
			}
			out[c.part].InsertedSide = append(out[c.part].InsertedSide, c.rid)
			out[r.part].TableSide = append(out[r.part].TableSide, r.rid)
		}
	}
	return out, nil
}

// partitionColumn copies partition p's values of the table's only column.
func partitionColumn(tb *Table, p int) []storage.Value {
	tb.lockPartition(p)
	defer tb.unlockPartition(p)
	view := tb.viewLocked(p)
	out := make([]storage.Value, view.NumRows())
	for r := range out {
		out[r] = view.Get(r, 0)
	}
	return out
}

// TestModifyNUCDifferentialVsJoin drives seeded random schedules through
// Modify on one table and through the paper's join (modifyViaJoin) on
// its twin, on a BIGINT and on a string NUC column over four
// partitions. Values come from a domain a few times the table size, so
// modifies collide in their own and in foreign partitions all the time;
// the schedule also produces batch-internal duplicates, two rows
// swapping values, new == old, sealed values whose every occurrence was
// deleted, and (odd seeds) pending deltas with AutoCheckpoint off. After
// every step contents, patch sets, collision-state counts and sealed
// set of the twins must be equal, the counts must equal the table, and
// no Modify may run a global collision join.
func TestModifyNUCDifferentialVsJoin(t *testing.T) {
	const parts, domain = 4, 160
	var eroded, swaps, own, foreign int // scenario coverage over all runs
	for _, k := range nucKinds {
		for seed := *modDiffSeed; seed < *modDiffSeed+6; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", k.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				db := newDB(t)
				db.AutoCheckpoint = seed%2 == 0
				design := core.DesignBitmap
				if seed%3 == 0 {
					design = core.DesignIdentifier
				}
				base := make([]storage.Row, 50+rng.Intn(30))
				for i := range base {
					base[i] = storage.Row{k.mk(rng.Intn(domain))}
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
				a, b := twin("a"), twin("b") // a: the join, b: Modify
				fresh := domain              // values beyond the domain are unique

				isSealed := func(tb *Table, d int) bool { return nucSealed(tb, k.mk(d)) }
				localCount := func(tb *Table, p, d int) uint32 { return nucLocalCount(tb, p, k.mk(d)) }
				compare := func(step string) {
					t.Helper()
					ap, bp := partitionPatches(a, "v"), partitionPatches(b, "v")
					for p := 0; p < parts; p++ {
						av, bv := partitionColumn(a, p), partitionColumn(b, p)
						if fmt.Sprint(av) != fmt.Sprint(bv) {
							t.Fatalf("%s: partition %d contents diverged:\njoin   %v\nModify %v", step, p, av, bv)
						}
						if fmt.Sprint(ap[p]) != fmt.Sprint(bp[p]) {
							t.Fatalf("%s: partition %d patch sets diverged: join=%v Modify=%v (values %v)", step, p, ap[p], bp[p], bv)
						}
						occurs := make(map[string]uint32)
						for _, v := range bv {
							occurs[valKey(v)]++
						}
						for d := 0; d < fresh; d++ {
							ca, cb := localCount(a, p, d), localCount(b, p, d)
							if ca != cb || cb != occurs[valKey(k.mk(d))] {
								t.Fatalf("%s: partition %d counts of %v: join=%d Modify=%d, table holds %d",
									step, p, k.mk(d), ca, cb, occurs[valKey(k.mk(d))])
							}
						}
					}
					for d := 0; d < fresh; d++ {
						if sa, sb := isSealed(a, d), isSealed(b, d); sa != sb {
							t.Fatalf("%s: value %v sealed: join=%v Modify=%v", step, k.mk(d), sa, sb)
						}
					}
					if la, lb := nucSealedLen(a), nucSealedLen(b); la != lb {
						t.Fatalf("%s: sealed set sizes diverged: join=%d Modify=%d", step, la, lb)
					}
				}
				compare("after discovery")

				modify := func(step string, p int, rids []uint64, vals []storage.Value) {
					t.Helper()
					if err := modifyViaJoin(db, a, p, rids, "v", vals); err != nil {
						t.Fatal(err)
					}
					before := b.CollisionJoins()
					if err := db.Modify("b", p, rids, "v", vals); err != nil {
						t.Fatal(err)
					}
					if after := b.CollisionJoins(); after != before {
						t.Fatalf("%s: Modify ran %d global collision join(s)", step, after-before)
					}
				}
				// deleteValue removes every occurrence of domain value d
				// from both twins.
				deleteValue := func(d int) {
					for p := 0; p < parts; p++ {
						var rids []uint64
						for r, v := range partitionColumn(b, p) {
							if v.Equal(k.mk(d)) {
								rids = append(rids, uint64(r))
							}
						}
						for _, name := range []string{"a", "b"} {
							if err := db.DeleteRowIDs(name, p, rids); err != nil {
								t.Fatal(err)
							}
						}
					}
				}

				for i := 0; i < *modDiffSteps; i++ {
					step := fmt.Sprintf("step %d", i)
					p := rng.Intn(parts)
					cur := partitionColumn(b, p)
					switch op := rng.Intn(20); {
					case op < 11 && len(cur) >= 2: // modify
						var rids []uint64
						for r := rng.Intn(2); r < len(cur) && len(rids) < 6; r += 1 + rng.Intn(len(cur)/2) {
							rids = append(rids, uint64(r))
						}
						vals := make([]storage.Value, len(rids))
						switch shape := rng.Intn(6); {
						case shape == 0: // every row to one value: batch-internal duplicates
							d := rng.Intn(domain)
							for j := range vals {
								vals[j] = k.mk(d)
							}
						case shape == 1 && len(rids) >= 2: // two rows swap values, the rest keep theirs
							for j, r := range rids {
								vals[j] = cur[r]
							}
							vals[0], vals[1] = vals[1], vals[0]
							swaps++
						case shape == 2: // fresh values only: no collision anywhere
							for j := range vals {
								vals[j] = k.mk(fresh)
								fresh++
							}
						default: // the dense domain: own- and foreign-partition collisions
							for j := range vals {
								d := rng.Intn(domain)
								vals[j] = k.mk(d)
								for q := 0; q < parts && !isSealed(b, d); q++ {
									if localCount(b, q, d) == 0 {
										continue
									}
									if q == p {
										own++
									} else {
										foreign++
									}
								}
							}
						}
						modify(step, p, rids, vals)
					case op < 13: // erode a sealed value to nothing, then modify a row to it
						d := rng.Intn(domain)
						for tries := 0; tries < domain && !isSealed(b, d); tries++ {
							d = (d + 1) % domain
						}
						if !isSealed(b, d) {
							continue
						}
						deleteValue(d)
						compare(step + " (erosion deletes)")
						if cur = partitionColumn(b, p); len(cur) == 0 {
							continue
						}
						rid := uint64(rng.Intn(len(cur)))
						modify(step, p, []uint64{rid}, []storage.Value{k.mk(d)})
						assertPatchAt(t, b, "v", p, rid, true)
						eroded++
					case op < 16: // insert, the same path on both twins
						rows := make([]storage.Row, 1+rng.Intn(6))
						for j := range rows {
							rows[j] = storage.Row{k.mk(rng.Intn(domain))}
						}
						for _, name := range []string{"a", "b"} {
							if err := db.InsertRows(name, rows); err != nil {
								t.Fatal(err)
							}
						}
					case op < 19 && len(cur) > 0: // delete
						var rids []uint64
						for r := rng.Intn(3); r < len(cur); r += 1 + rng.Intn(5) {
							rids = append(rids, uint64(r))
						}
						for _, name := range []string{"a", "b"} {
							if err := db.DeleteRowIDs(name, p, rids); err != nil {
								t.Fatal(err)
							}
						}
					default: // propagate the pending deltas
						a.Checkpoint()
						b.Checkpoint()
					}
					compare(step)
				}
				for _, x := range append(a.PatchIndexes("v"), b.PatchIndexes("v")...) {
					if err := x.Validate(); err != nil {
						t.Fatal(err)
					}
				}
				if a.CollisionJoins() == 0 {
					t.Fatal("the oracle never ran the collision join; the differential has no reference behavior")
				}
			})
		}
	}
	if eroded == 0 || swaps == 0 || own == 0 || foreign == 0 {
		t.Fatalf("schedules missed a scenario: %d eroded-value modifies, %d swaps, %d own-partition and %d foreign-partition count hits",
			eroded, swaps, own, foreign)
	}
}
