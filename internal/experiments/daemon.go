package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"
	"time"

	"patchindex/internal/core"
	"patchindex/internal/engine"
	"patchindex/internal/exec"
	"patchindex/internal/query"
	"patchindex/internal/sortkey"
	"patchindex/internal/storage"
)

// RunDaemon is the self-managing maintenance experiment (an extension
// beyond the paper's evaluation, building on the recomputation triggers
// of Sections 5.1/5.3): one worker per partition churns a table carrying
// a NSC index (key column, fed mostly-ascending keys with a steady
// inversion fraction) and a NUC index (value column, mostly-unique with
// a shared duplicate pool), once with the maintenance daemon ticking
// under the workload and once without. Reported per run: churn wall
// time, final table size, the fast/widened insert split, the final
// NSC/NUC exception rates and index memory — plus the daemon's action
// counters, which show where the repair work went (partition re-sorts
// through the sort-key reorderer, in-place slot recomputes, condenses).
// A concurrent reader drives the general query layer (query.Run in Auto
// mode) against the churning table throughout, so each run also reports
// read latency under churn —
// the daemon's keep-the-index-healthy work should show up as cheaper
// patch plans, not just lower exception rates.
func RunDaemon(w io.Writer, s Scale) {
	header(w, "daemon", "maintenance daemon under insert/delete churn")
	steps := s.Rows / 100
	if steps < 50 {
		steps = 50
	}
	for _, withDaemon := range []bool{false, true} {
		runDaemonChurn(w, s, steps, withDaemon)
	}
}

func runDaemonChurn(w io.Writer, s Scale, steps int, withDaemon bool) {
	db := engine.NewDatabase()
	tb, err := db.CreateTable("churn", storage.Schema{
		{Name: "k", Kind: storage.KindInt64},
		{Name: "v", Kind: storage.KindInt64},
	}, s.Partitions)
	if err != nil {
		panic(err)
	}
	opts := core.Options{Design: core.DesignBitmap}
	if err := tb.CreatePatchIndex("k", core.NearlySorted, opts); err != nil {
		panic(err)
	}
	if err := tb.CreatePatchIndex("v", core.NearlyUnique, opts); err != nil {
		panic(err)
	}
	sk, err := sortkey.CreateEngine(tb, "k", false)
	if err != nil {
		panic(err)
	}

	var m *engine.Maintainer
	if withDaemon {
		cfg := engine.DefaultMaintainerConfig()
		cfg.Interval = time.Millisecond
		cfg.MaxExceptionRate = 0.1
		cfg.MinSortedness = 0.9
		if m, err = db.StartMaintainer(cfg); err != nil {
			panic(err)
		}
		m.RegisterReorderer("churn", "k", sk)
	}

	stopQueries := make(chan struct{})
	latencies := make(chan []time.Duration, 1)
	go func() { latencies <- queryUnderChurn(db, stopQueries) }()

	elapsed := timeIt(func() {
		var wg sync.WaitGroup
		for p := 0; p < s.Partitions; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(7 + p)))
				key := int64(0)
				next := int64(p+1) << 40 // private near-unique value range
				for i := 0; i < steps; i++ {
					if i%8 == 7 {
						// Delete a bounded random window of this worker's
						// private values (windowed, so the surviving table
						// keeps a realistic private/duplicate mix).
						base := int64(p+1) << 40
						span := next - base
						if span > 0 {
							lo := base + rng.Int63n(span)
							hi := lo + 256
							if _, err := db.DeleteWhereInt64("churn", "v", func(x int64) bool {
								return x >= lo && x < hi
							}); err != nil {
								panic(err)
							}
						}
						continue
					}
					n := 1 + rng.Intn(4)
					rows := make([]storage.Row, n)
					for j := range rows {
						k := key
						if rng.Intn(100) < 30 {
							k -= 40 + rng.Int63n(50) // inversion: erodes the NSC
						} else {
							key += 1 + rng.Int63n(3)
							k = key
						}
						v := next
						next++
						if rng.Intn(100) < 3 {
							v = 100 + rng.Int63n(64) // shared duplicate pool
						}
						rows[j] = storage.Row{storage.I64(k), storage.I64(v)}
					}
					if err := db.InsertRowsPartition("churn", p, rows); err != nil {
						panic(err)
					}
				}
			}(p)
		}
		wg.Wait()
	})
	close(stopQueries)
	lats := <-latencies
	db.Close()

	label := "daemon off"
	if withDaemon {
		label = "daemon on "
	}
	fast, fallback := tb.InsertStats()
	fmt.Fprintf(w, "%s  churn %8.1f ms  rows %8d  inserts fast/widened %d/%d\n",
		label, ms(elapsed), tb.NumRows(), fast, fallback)
	fmt.Fprintf(w, "%s  NSC rate %.4f  NUC rate %.4f  index mem %d B\n",
		label, tb.ExceptionRate("k"), tb.ExceptionRate("v"),
		tb.IndexMemoryBytes("k")+tb.IndexMemoryBytes("v"))
	mean, p95 := latencyStats(lats)
	fmt.Fprintf(w, "%s  queries %5d  latency mean %8.3f ms  p95 %8.3f ms\n",
		label, len(lats), ms(mean), ms(p95))
	if m != nil {
		st := m.Stats()
		fmt.Fprintf(w, "%s  sweeps %d  actions %d (reorders %d, recomputes %d, condenses %d)  refusals/retries/errors %d/%d/%d\n",
			label, st.Sweeps, st.Actions, st.Reorders, st.Recomputes, st.Condenses,
			st.Refusals, st.Retries, st.Errors)
	}
}

// queryUnderChurn runs general-layer queries in a loop until stop
// closes, returning each query's end-to-end latency (snapshot capture,
// optimize, execute, release). The plan is a windowed aggregate over
// the NSC key — the shape whose access-path choice depends on the
// exception rates the churn is actively eroding — compiled fresh each
// iteration in Auto mode, so the optimizer re-decides against live
// statistics every time.
func queryUnderChurn(db *engine.Database, stop <-chan struct{}) []time.Duration {
	rng := rand.New(rand.NewSource(99))
	var out []time.Duration
	for {
		select {
		case <-stop:
			return out
		default:
		}
		lo := rng.Int63n(1 << 12)
		p := query.From("churn", "k", "v").
			Where(query.Between(query.Col("k"), query.Int(lo), query.Int(lo+512))).
			Aggregate(nil, query.CountAll("n"), query.MaxOf(query.Col("v"), "vmax"))
		start := time.Now()
		c, err := query.Run(db, p, query.Options{})
		if err != nil {
			panic(err)
		}
		// Collect drains and closes the root, which releases the
		// snapshot through the OnClose hook Run installed.
		if _, err := exec.Collect(c.Root); err != nil {
			panic(err)
		}
		out = append(out, time.Since(start))
	}
}

// latencyStats returns the mean and 95th percentile of a latency
// sample (zeros when empty).
func latencyStats(lats []time.Duration) (mean, p95 time.Duration) {
	if len(lats) == 0 {
		return 0, 0
	}
	sorted := append([]time.Duration(nil), lats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum time.Duration
	for _, d := range sorted {
		sum += d
	}
	return sum / time.Duration(len(sorted)), sorted[len(sorted)*95/100]
}
