package storage

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// sameSummary reports how got differs from want, block for block.
func sameSummary(got, want *MinMax) error {
	if got.Rows() != want.Rows() || got.Blocks() != want.Blocks() {
		return fmt.Errorf("summary covers %d rows in %d blocks, want %d in %d", got.Rows(), got.Blocks(), want.Rows(), want.Blocks())
	}
	for b := 0; b < want.Blocks(); b++ {
		gl, gh := got.BlockRange(b)
		wl, wh := want.BlockRange(b)
		if gl != wl || gh != wh {
			return fmt.Errorf("block %d = [%d,%d], want [%d,%d]", b, gl, gh, wl, wh)
		}
	}
	return nil
}

// checkSummary requires p.MinMax(col) to equal a fresh BuildMinMax over
// p's own column.
func checkSummary(t *testing.T, what string, p *Partition, col int) *MinMax {
	t.Helper()
	m := p.MinMax(col)
	if err := sameSummary(m, BuildMinMax(p.Column(col).Int64s())); err != nil {
		t.Fatalf("%s column %d: %v", what, col, err)
	}
	return m
}

// randomRows returns n rows of the three-column test schema whose int64
// values spread over a range that shifts with the call, so appended
// blocks move the bounds.
func randomRows(rng *rand.Rand, n int) []Row {
	base := rng.Int63n(1 << 20)
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{I64(base + rng.Int63n(5000)), I64(-base - rng.Int63n(5000)), Str("x")}
	}
	return rows
}

// asColumns converts rows of the test schema into AppendColumns input.
func asColumns(rows []Row) []*Column {
	cols := []*Column{NewColumn("key", KindInt64), NewColumn("val", KindInt64), NewColumn("name", KindString)}
	for _, r := range rows {
		for i, v := range r {
			cols[i].Append(v)
		}
	}
	return cols
}

// TestMinMaxSurvivesWritesProperty runs seeded random sequences of
// appends, deletes, overwrites, reorders and freezes on one partition.
// Every MinMax on the live partition, and on every view frozen since its
// last in-place delete/overwrite/reorder, must equal BuildMinMax over
// that partition's own column; two freezes of an unchanged partition
// must return the identical summary. Views frozen before such a write
// (which the engine never lets a reader use: it clones instead) keep
// building and publishing, and must never poison the live partition.
func TestMinMaxSurvivesWritesProperty(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			p := NewPartition(testSchema())
			p.AppendColumns(asColumns(randomRows(rng, 3*BlockRows+100)))
			var valid, expired []*Partition
			// invalidate expires the valid views and, half the time, lets one
			// of them summarize right away: a publish that lands now, then
			// meets later appends, is what a missed mutation count lets through.
			invalidate := func() {
				expired = append(expired, valid...)
				valid = nil
				if len(expired) > 0 && rng.Intn(2) == 0 {
					expired[rng.Intn(len(expired))].MinMax(rng.Intn(2))
				}
			}
			for step := 0; step < 400; step++ {
				col := rng.Intn(2)
				switch op := rng.Intn(10); op {
				case 0:
					p.AppendRow(randomRows(rng, 1)[0])
				case 1:
					p.AppendColumns(asColumns(randomRows(rng, 1+rng.Intn(2*BlockRows))))
				case 2:
					if n := p.NumRows(); n > 0 {
						var pos []uint64
						for r := rng.Intn(n); r < n && len(pos) < 40; r += 1 + rng.Intn(300) {
							pos = append(pos, uint64(r))
						}
						p.DeleteRows(pos)
						invalidate()
					}
				case 3:
					if n := p.NumRows(); n > 0 {
						p.SetValue(rng.Intn(n), col, I64(rng.Int63n(1<<22)-1<<21))
						invalidate()
					}
				case 4:
					// A reorder: permute the rows in place, then invalidate.
					vals := p.Column(col).Int64s()
					rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
					p.InvalidateMinMax()
					invalidate()
				case 5:
					f1 := p.Freeze()
					m1 := checkSummary(t, "frozen", f1, col)
					if m2 := p.Freeze().MinMax(col); m2 != m1 {
						t.Fatalf("step %d: two freezes of an unchanged partition returned different summaries", step)
					}
					if m := p.MinMax(col); m != m1 {
						t.Fatalf("step %d: the live partition does not share its frozen view's summary", step)
					}
					valid = append(valid, f1)
				case 6:
					valid = append(valid, p.Freeze())
				case 7:
					checkSummary(t, "live", p, col)
				case 8:
					if len(valid) > 0 {
						checkSummary(t, "frozen", valid[rng.Intn(len(valid))], col)
					}
				case 9:
					if len(expired) > 0 {
						expired[rng.Intn(len(expired))].MinMax(col)
					}
				}
				if len(valid) > 6 {
					valid = valid[1:]
				}
				if len(expired) > 6 {
					expired = expired[1:]
				}
			}
			for col := 0; col < 2; col++ {
				checkSummary(t, "live", p, col)
			}
			if p.MinMax(2) != nil {
				t.Fatal("MinMax on a string column should be nil")
			}
		})
	}
}

// TestMinMaxPublishRace lets frozen readers build, extend and publish
// summaries while a writer appends and deletes, under the engine's
// discipline: Freeze and every write hold one partition lock, appends
// go in place, and a delete of a partition a reader still holds goes to
// a clone that replaces it. Run under -race.
func TestMinMaxPublishRace(t *testing.T) {
	const readers, rounds = 3, 200
	var (
		mu   sync.Mutex // stands in for the engine's partition lock
		live = NewPartition(testSchema())
		refs = map[*Partition]int{}
		wg   sync.WaitGroup
	)
	locked := func(fn func()) {
		mu.Lock()
		defer mu.Unlock()
		fn()
	}
	seedRng := rand.New(rand.NewSource(5))
	live.AppendColumns(asColumns(randomRows(seedRng, 2*BlockRows)))

	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(6))
		for i := 0; i < rounds; i++ {
			locked(func() {
				if i%4 != 3 {
					live.AppendColumns(asColumns(randomRows(rng, 1+rng.Intn(BlockRows))))
					return
				}
				target := live
				if refs[live] > 0 {
					target = live.Clone()
				}
				target.DeleteRows([]uint64{uint64(rng.Intn(target.NumRows()))})
				live = target
			})
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				var src, f *Partition
				locked(func() {
					src = live
					f = src.Freeze()
					refs[src]++
				})
				col := i % 2
				if err := sameSummary(f.MinMax(col), BuildMinMax(f.Column(col).Int64s())); err != nil {
					t.Errorf("frozen column %d: %v", col, err)
				}
				locked(func() { refs[src]-- })
			}
		}()
	}
	wg.Wait()
	for col := 0; col < 2; col++ {
		checkSummary(t, "live", live, col)
	}
}
