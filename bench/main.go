// Command bench is the repository's benchmark: four seeded workloads
// against the PatchIndex engine, end-to-end metrics from an untraced
// run and per-layer metrics from a traced one. See README.md.
//
// The driver's contract is one run per invocation:
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// which prints, as the last line of standard output, one JSON object
// with the keys correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames))
		all       = flag.Bool("all", false, "run every workload, untraced then traced")
		seed      = flag.Int64("seed", 11, "seed the inputs are generated from")
		seconds   = flag.Float64("seconds", 12, "length of the measured phase")
		trace     = flag.Int("trace", 0, "1 runs traced and prints the per-layer metrics")
		scaleName = flag.String("scale", "full", "input sizes: full or tiny")
		work      = flag.String("work", ".bench_build/work", "scratch directory (WAL segments, checkpoints)")
		out       = flag.String("out", "bench/out", "where the traced run writes <workload>.trace.json")
		compare   = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
		selfcheck = flag.Bool("selfcheck", false, "run two sets on this tree and fail if they disagree beyond the bounds")
		record    = flag.String("record", "", "run -runs runs per workload and write their statistics to this file")
		runs      = flag.Int("runs", 10, "runs per workload for -record and -selfcheck")
		spec      = flag.String("spec", "BENCHMARK.json", "the benchmark declaration (bounds for -compare and -selfcheck)")
	)
	flag.Parse()
	// The box has two cores; never use more, so that numbers from a
	// bigger machine stay comparable.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	sc, ok := scales[*scaleName]
	if !ok {
		fatal(fmt.Errorf("unknown scale %q", *scaleName))
	}
	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace != 0, scale: sc, work: *work, out: *out}

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		if regressed, err := compareFiles(os.Stdout, *spec, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		} else if regressed {
			os.Exit(1)
		}
	case *selfcheck:
		if err := selfCheck(os.Stdout, *spec, cfg, *runs); err != nil {
			fatal(err)
		}
	case *record != "":
		set, err := recordSet(cfg, *runs)
		if err != nil {
			fatal(err)
		}
		if err := writeJSON(*record, set); err != nil {
			fatal(err)
		}
	case *all:
		for _, name := range workloadNames {
			for _, traced := range []bool{false, true} {
				cfg.workload, cfg.trace = name, traced
				if err := runAndPrint(cfg); err != nil {
					fatal(err)
				}
			}
		}
	default:
		if err := runAndPrint(cfg); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runAndPrint runs one workload, lists every metric by name and unit on
// standard error, and prints the result line on standard output.
func runAndPrint(cfg runConfig) error {
	res, err := runWorkload(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", cfg.workload, err)
	}
	mode := "untraced"
	if cfg.trace {
		mode = "traced"
	}
	fmt.Fprintf(os.Stderr, "== %s seed=%d seconds=%g scale=%s %s: attempted %d, failed %d\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.scale.name, mode, res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := res.Metrics[name]
		fmt.Fprintf(os.Stderr, "%-36s %16.6g %s\n", name, v.Value, v.Unit)
	}
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "FAILED:", p)
	}
	if cfg.trace {
		fmt.Fprintln(os.Stderr, "trace written to", res.tracePath)
		for _, warning := range paperShape(cfg.workload, res.Metrics) {
			fmt.Fprintln(os.Stderr, "paper-shape warning:", warning)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}

// paperShape checks the relative effects the paper reports against the
// traced run's numbers. They are warnings: a reproduction that stops
// reproducing should be seen, not fail the run.
func paperShape(workload string, m map[string]metricValue) []string {
	var out []string
	if v := m["bitmap.flat_vs_sharded_delete_ratio"].Value; v <= 1 {
		out = append(out, fmt.Sprintf("Fig. 6: sharded bulk delete should beat the flat bitmap, flat/sharded = %.2f", v))
	}
	if v := m["plan.chooser_regret"].Value; v >= 1.25 {
		out = append(out, fmt.Sprintf("Auto is %.2fx the best forced plan mode (want < 1.25)", v))
	}
	if workload == "micro_update" || workload == "tpch_refresh" {
		if v := m["plan.patch_vs_reference_ratio"].Value; v >= 1 {
			out = append(out, fmt.Sprintf("Fig. 7/10: the patch plan should beat the reference plan at e = 0.05, patch/reference = %.2f", v))
		}
	}
	return out
}
