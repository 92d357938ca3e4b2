package engine_test

// Seeded concurrent-churn test for the maintenance daemon, living in
// package engine_test so it can drive the real sortkey reorderer
// (sortkey imports engine). Four workers churn their own partitions —
// partition-targeted inserts and value-predicate deletes only; nothing
// positional, because the daemon physically permutes partitions under
// the workers — while the daemon re-sorts eroded NSC partitions and
// recomputes and condenses slots. Afterwards the table must hold
// exactly the rows the per-worker mirrors predict, every index must
// validate, and the NSC
// exception rate must sit back under the daemon's threshold. A twin run
// without the daemon shows the erosion the daemon is repairing.

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"patchindex/internal/core"
	"patchindex/internal/engine"
	"patchindex/internal/sortkey"
	"patchindex/internal/storage"
)

const (
	churnWorkers = 4
	churnSteps   = 250
	churnSeed    = 20260808

	// Daemon thresholds. MaxExceptionRate must equal 1-MinSortedness:
	// the recompute repair rediscovers exactly n-LIS patches, so a slot
	// whose sortedness passes the reorder bar comes out at or under the
	// rate bar — which is what makes the post-quiesce rate assertion
	// deterministic.
	churnMaxRate       = 0.1
	churnMinSortedness = 0.9
)

func churnVBase(w int) int64 { return int64(w+1) << 40 }

type churnRow struct{ k, v int64 }

// churnWorker owns partition w outright for inserts; deletes go through
// the table-wide DeleteWhereInt64 but the predicate only matches the
// worker's private value range, so each worker's mirror stays exact.
type churnWorker struct {
	w       int
	rng     *rand.Rand
	kc      int64           // mostly increasing NSC key counter
	vc      int64           // private NUC value counter
	live    map[int64]int64 // private v -> its k, for delete bookkeeping
	mirror  map[churnRow]int
	poolIns [8]int // insertions per shared pool value
}

// poolRow is the j-th shared duplicate row: the same (k, v) pair is
// inserted by every worker into its own partition, exercising the NUC
// cross-partition collision path (and the sealed exception set) while
// staying trivially mirrorable.
func poolRow(j int) churnRow { return churnRow{k: -1000 - int64(j), v: 100 + int64(j)} }

func (cw *churnWorker) insertBatch(t *testing.T, db *engine.Database) {
	t.Helper()
	n := 1 + cw.rng.Intn(4)
	rows := make([]storage.Row, 0, n)
	for i := 0; i < n; i++ {
		if cw.rng.Intn(100) < 15 { // shared duplicate from the pool
			j := cw.rng.Intn(len(cw.poolIns))
			pr := poolRow(j)
			rows = append(rows, storage.Row{storage.I64(pr.k), storage.I64(pr.v)})
			cw.poolIns[j]++
			cw.mirror[pr]++
			continue
		}
		var k int64
		if cw.rng.Intn(100) < 30 { // inversion: erodes NSC and sortedness
			k = cw.kc - 40 - cw.rng.Int63n(50)
		} else {
			cw.kc += 1 + cw.rng.Int63n(3)
			k = cw.kc
		}
		v := churnVBase(cw.w) + cw.vc
		cw.vc++
		rows = append(rows, storage.Row{storage.I64(k), storage.I64(v)})
		cw.live[v] = k
		cw.mirror[churnRow{k, v}]++
	}
	if err := db.InsertRowsPartition("churn", cw.w, rows); err != nil {
		t.Error(err)
	}
}

func (cw *churnWorker) deleteSome(t *testing.T, db *engine.Database) {
	t.Helper()
	m := int64(3 + cw.rng.Intn(5))
	r := cw.rng.Int63n(m)
	lo, hi := churnVBase(cw.w), churnVBase(cw.w+1)
	want := 0
	for v, k := range cw.live {
		if v%m == r {
			want++
			delete(cw.live, v)
			row := churnRow{k, v}
			if cw.mirror[row]--; cw.mirror[row] == 0 {
				delete(cw.mirror, row)
			}
		}
	}
	got, err := db.DeleteWhereInt64("churn", "v", func(x int64) bool {
		return x >= lo && x < hi && x%m == r
	})
	if err != nil {
		t.Error(err)
	} else if got != want {
		t.Errorf("worker %d: deleted %d rows, mirror predicted %d", cw.w, got, want)
	}
}

// runChurn builds the table, runs the workload (with or without the
// daemon), verifies the table against the merged mirrors, and returns
// the table plus the stopped maintainer (nil without daemon).
func runChurn(t *testing.T, withDaemon bool) (*engine.Table, *engine.Maintainer) {
	t.Helper()
	db := engine.NewDatabase()
	tb, err := db.CreateTable("churn", storage.Schema{
		{Name: "k", Kind: storage.KindInt64},
		{Name: "v", Kind: storage.KindInt64},
	}, churnWorkers)
	if err != nil {
		t.Fatal(err)
	}

	workers := make([]*churnWorker, churnWorkers)
	for w := range workers {
		workers[w] = &churnWorker{
			w:      w,
			rng:    rand.New(rand.NewSource(churnSeed + int64(w))),
			live:   map[int64]int64{},
			mirror: map[churnRow]int{},
		}
	}

	// Seed: 32 sorted private rows per partition, then two pool rows so
	// NUC discovery seals cross-partition duplicates up front.
	for w, cw := range workers {
		var rows []storage.Row
		for i := 0; i < 32; i++ {
			k, v := int64(i*10), churnVBase(w)+cw.vc
			cw.kc, cw.vc = k, cw.vc+1
			cw.live[v] = k
			cw.mirror[churnRow{k, v}]++
			rows = append(rows, storage.Row{storage.I64(k), storage.I64(v)})
		}
		for j := 0; j < 2; j++ {
			pr := poolRow(j)
			cw.poolIns[j]++
			cw.mirror[pr]++
			rows = append(rows, storage.Row{storage.I64(pr.k), storage.I64(pr.v)})
		}
		if err := db.InsertRowsPartition("churn", w, rows); err != nil {
			t.Fatal(err)
		}
	}

	opts := core.Options{Design: core.DesignBitmap, ShardBits: 64}
	if err := tb.CreatePatchIndex("k", core.NearlySorted, opts); err != nil {
		t.Fatal(err)
	}
	if err := tb.CreatePatchIndex("v", core.NearlyUnique, opts); err != nil {
		t.Fatal(err)
	}
	sk, err := sortkey.CreateEngine(tb, "k", false)
	if err != nil {
		t.Fatal(err)
	}

	var m *engine.Maintainer
	if withDaemon {
		m, err = db.StartMaintainer(engine.MaintainerConfig{
			Interval:         time.Millisecond,
			MaxExceptionRate: churnMaxRate,
			MinSortedness:    churnMinSortedness,
			MinUtilization:   0.2,
		})
		if err != nil {
			t.Fatal(err)
		}
		m.RegisterReorderer("churn", "k", sk)
	}

	var wg sync.WaitGroup
	for _, cw := range workers {
		wg.Add(1)
		go func(cw *churnWorker) {
			defer wg.Done()
			for step := 0; step < churnSteps; step++ {
				if len(cw.live) >= 40 && cw.rng.Intn(4) == 0 {
					cw.deleteSome(t, db)
				} else {
					cw.insertBatch(t, db)
				}
			}
		}(cw)
	}
	wg.Wait()
	db.Close()

	// The table must hold exactly the union of the worker mirrors.
	want := map[churnRow]int{}
	for _, cw := range workers {
		for row, n := range cw.mirror {
			want[row] += n
		}
	}
	got := map[churnRow]int{}
	for p := 0; p < churnWorkers; p++ {
		ks := tb.ReadInt64Column(p, "k")
		vs := tb.ReadInt64Column(p, "v")
		if len(ks) != len(vs) {
			t.Fatalf("partition %d: %d keys vs %d values", p, len(ks), len(vs))
		}
		for i := range ks {
			got[churnRow{ks[i], vs[i]}]++
		}
	}
	for row, n := range want {
		if got[row] != n {
			t.Errorf("row (%d,%d): table has %d copies, mirrors predict %d", row.k, row.v, got[row], n)
		}
	}
	for row, n := range got {
		if want[row] == 0 {
			t.Errorf("row (%d,%d): table has %d copies the mirrors never wrote", row.k, row.v, n)
		}
	}
	for _, col := range []string{"k", "v"} {
		for p, x := range tb.PatchIndexes(col) {
			if err := x.Validate(); err != nil {
				t.Errorf("index %q partition %d: %v", col, p, err)
			}
		}
	}
	return tb, m
}

func TestChurnWithMaintainer(t *testing.T) {
	tb, m := runChurn(t, true)

	// The daemon is stopped; two manual sweeps repair any erosion that
	// landed after its last tick. Every partition then either sits at or
	// under the rate bar, was re-sorted (rate 0), or was recomputed with
	// sortedness >= MinSortedness (rate <= 1-MinSortedness = the bar) —
	// so the table-wide rate is bounded deterministically.
	m.Sweep()
	m.Sweep()
	st := m.Stats()
	t.Logf("maintainer: %+v", st)
	if st.Errors != 0 {
		t.Fatalf("daemon hit %d non-refusal errors: %+v", st.Errors, st)
	}
	if st.Reorders == 0 {
		t.Fatalf("daemon never re-sorted a partition: %+v", st)
	}
	if rate := tb.ExceptionRate("k"); rate > churnMaxRate+1e-9 {
		t.Fatalf("NSC exception rate %f still above the daemon's %f bar", rate, churnMaxRate)
	}
}

func TestChurnWithoutMaintainer(t *testing.T) {
	tb, _ := runChurn(t, false)
	if rate := tb.ExceptionRate("k"); rate <= churnMaxRate {
		t.Fatalf("undaemoned churn ended with NSC exception rate %f; the workload no longer erodes past the %f bar, so the daemon test proves nothing", rate, churnMaxRate)
	}
	t.Logf("undaemoned NSC exception rate: %f", tb.ExceptionRate("k"))
}
