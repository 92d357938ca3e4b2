package main

import (
	"fmt"

	"patchindex/internal/engine"
	"patchindex/internal/exec"
	"patchindex/internal/plan"
	"patchindex/internal/query"
	"patchindex/internal/storage"
	"patchindex/internal/tpch"
	"patchindex/internal/wal"
)

// tpchRefresh is the paper's Fig. 10 setting kept running: TPC-H Q3, Q7
// and Q12 through the query layer in Auto mode with one shared chooser,
// each followed by the RF1 and RF2 refresh sets, in a loop.
// Read-dominated and join-heavy; WAL off, daemon off.
type tpchRefresh struct {
	ds      *tpch.Dataset
	chooser *plan.Chooser
	refresh int // orders per refresh set: the paper's 0.1 % of orders
	// Harness-side tally of what the refresh sets must have left behind.
	orders, lineitems int
}

func (w *tpchRefresh) setup(seed int64, sc scale, dir string) error {
	ds, err := tpch.Generate(tpch.Config{SF: sc.tpchSF, ExceptionRate: 0.05, LineitemPartitions: partitions, Seed: seed})
	if err != nil {
		return err
	}
	if err := ds.CreatePatchIndex(); err != nil {
		return err
	}
	w.ds, w.chooser = ds, plan.NewChooser()
	w.refresh = max(1, int(tpch.RF1InsertFraction*float64(ds.NumOrders)))
	w.orders, w.lineitems = ds.NumOrders, ds.NumLineitems
	return nil
}

func (w *tpchRefresh) quiesce()                  {}
func (w *tpchRefresh) tail(*client)              {}
func (w *tpchRefresh) db() *engine.Database      { return w.ds.DB }
func (w *tpchRefresh) walPolicy() wal.SyncPolicy { return wal.SyncNone }
func (w *tpchRefresh) tables() []string {
	return []string{"nation", "customer", "supplier", "orders", "lineitem"}
}
func (w *tpchRefresh) indexed() [][2]string { return [][2]string{{"lineitem", "l_orderkey"}} }

func (w *tpchRefresh) plans() []*query.Plan {
	return []*query.Plan{tpch.Q3Plan(), tpch.Q7Plan(), tpch.Q12Plan()}
}

func (w *tpchRefresh) clients() []func(*client) {
	return []func(*client){func(c *client) {
		plans := w.plans()
		opts := query.Options{Chooser: w.chooser}
		for n := 0; c.running(); n++ {
			p := plans[n%len(plans)]
			c.query(w.ds.DB, p, opts, false)
			// Every tenth query is also checked against the reference
			// plan on one snapshot; ten and three are coprime, so the
			// check visits all three plans.
			if n%10 == 0 {
				c.verifyQuery(w.ds.DB, p, opts, true)
			}
			c.update(opInsert, func() (int, error) {
				n, err := w.ds.RF1(w.refresh, nil)
				w.orders += w.refresh
				w.lineitems += n
				return n + w.refresh, err
			})
			c.update(opDelete, func() (int, error) {
				gone := min(w.refresh, w.orders)
				n, err := w.ds.RF2(w.refresh, nil)
				w.orders -= gone
				w.lineitems -= n
				return n + gone, err
			})
		}
	}}
}

func (w *tpchRefresh) verify() []error {
	var errs []error
	for table, want := range map[string]int{"orders": w.orders, "lineitem": w.lineitems} {
		if got := w.ds.DB.MustTable(table).NumRows(); got != want {
			errs = append(errs, fmt.Errorf("%s holds %d rows, the refresh tally says %d", table, got, want))
		}
	}
	if err := checkIndex(w.ds.DB.MustTable("lineitem"), "l_orderkey"); err != nil {
		errs = append(errs, err)
	}
	// RF2 deletes orders together with their lineitems: every lineitem
	// that is left must still find its order.
	joined := query.From("lineitem", "l_orderkey").
		Join(query.From("orders", "o_orderkey"), "l_orderkey", "o_orderkey").
		Aggregate(nil, query.CountAll("n"))
	comp, err := query.Run(w.ds.DB, joined, query.Options{Mode: query.ForceReference})
	if err == nil {
		var rows []storage.Row
		if rows, err = exec.Collect(comp.Root); err == nil && (len(rows) != 1 || rows[0][0].I != int64(w.lineitems)) {
			err = fmt.Errorf("lineitem ⋈ orders returned %v, want one row counting %d", rows, w.lineitems)
		}
	}
	if err != nil {
		errs = append(errs, err)
	}
	return errs
}

func (w *tpchRefresh) shape() probeShape {
	li := w.ds.DB.MustTable("lineitem")
	return probeShape{
		rows: li.NumRows() / partitions, batch: 4 * w.refresh / partitions, column: li.ReadInt64Column(0, "l_orderkey"),
		queries: []*query.Plan{tpch.Q12Plan(), tpch.Q3Plan()}, opts: query.Options{Chooser: w.chooser},
	}
}
