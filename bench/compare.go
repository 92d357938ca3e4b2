package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the comparer needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// metricStats summarizes one end-to-end metric over the runs of a set.
type metricStats struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

type workloadStats struct {
	Runs      int                    `json:"runs"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricStats `json:"metrics"`
}

// resultSet is a committed baseline (results/BENCH_<pr>.json) or one
// side of a comparison.
type resultSet struct {
	Meta      map[string]any           `json:"meta"`
	Workloads map[string]workloadStats `json:"workloads"`
}

// runChild runs one workload in a process of its own, as the driver
// does: peak memory is per process, so runs must not share one.
func runChild(cfg runConfig) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self,
		"--workload", cfg.workload, "--seed", fmt.Sprint(cfg.seed), "--seconds", fmt.Sprint(cfg.seconds),
		"--trace", "0", "--scale", cfg.scale.name, "--work", cfg.work, "--out", cfg.out)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, io.Discard
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", cfg.workload, cfg.seed, err)
	}
	var last string
	for sc := bufio.NewScanner(&stdout); sc.Scan(); {
		last = sc.Text()
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", cfg.workload, cfg.seed, err)
	}
	return &res, nil
}

// recordSet runs every workload runs times, each time with another
// seed, and summarizes each end-to-end metric.
func recordSet(cfg runConfig, runs int) (*resultSet, error) {
	set := &resultSet{Meta: meta(cfg, runs), Workloads: map[string]workloadStats{}}
	for _, name := range workloadNames {
		ws := workloadStats{Runs: runs, Metrics: map[string]metricStats{}}
		values := map[string][]float64{}
		for r := 0; r < runs; r++ {
			c := cfg
			c.workload, c.seed = name, cfg.seed+int64(r)
			res, err := runChild(c)
			if err != nil {
				return nil, err
			}
			ws.Attempted += res.Attempted
			ws.Failed += res.Failed
			for metric, v := range res.Metrics {
				values[metric] = append(values[metric], v.Value)
			}
			fmt.Fprintf(os.Stderr, "%s seed %d: attempted %d, failed %d\n", name, c.seed, res.Attempted, res.Failed)
		}
		for _, d := range endToEnd {
			q1, q3 := quartiles(values[d.name])
			ws.Metrics[d.name] = metricStats{Unit: d.unit, Median: median(values[d.name]), Q1: q1, Q3: q3, Values: values[d.name]}
		}
		set.Workloads[name] = ws
	}
	return set, nil
}

func meta(cfg runConfig, runs int) map[string]any {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return map[string]any{
		"commit": commit, "go_version": runtime.Version(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"first_seed": cfg.seed, "seconds": cfg.seconds, "runs_per_workload": runs, "scale": cfg.scale.name,
		"sizes": map[string]any{
			"tpch_sf": cfg.scale.tpchSF, "micro_rows": cfg.scale.microRows, "churn_rows": cfg.scale.churnRows,
			"durable_rows": cfg.scale.durableRows, "partitions": partitions,
			"setups": cfg.scale.setups, "checkpoints": cfg.scale.checkpoints, "recovers": cfg.scale.recovers,
			"churn_tail_steps": cfg.scale.churnTail, "durable_tail_batches_per_writer": cfg.scale.durableTail,
		},
		"non_test_go_lines": goLines("."),
	}
}

// goLines counts the lines of the non-test Go files under root,
// leaving out the benchmark itself.
func goLines(root string) int {
	var n int
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "bench") {
			return filepath.SkipDir
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			if data, err := os.ReadFile(path); err == nil {
				n += bytes.Count(data, []byte("\n"))
			}
		}
		return nil
	})
	return n
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func compareFiles(w io.Writer, specPath, a, b string) (bad bool, err error) {
	spec, err := loadSpec(specPath)
	if err != nil {
		return false, err
	}
	sa, err := readSet(a)
	if err != nil {
		return false, err
	}
	sb, err := readSet(b)
	if err != nil {
		return false, err
	}
	return compareSets(w, spec, sa, sb), nil
}

// verdict judges b against a for one metric: "regressed" when b's
// median is worse than a's by more than the bound, "unresolved" when
// either side's own interquartile spread is wider than the bound (the
// runs cannot tell), "ok" otherwise.
func verdict(a, b metricStats, better string, bound float64) (delta float64, v string) {
	delta = ratio(b.Median-a.Median, a.Median)
	worse := delta
	if better == "higher" {
		worse = -delta
	}
	switch {
	case spread(a.Values) > bound || spread(b.Values) > bound:
		return delta, "unresolved"
	case worse > bound:
		return delta, "regressed"
	}
	return delta, "ok"
}

// compareSets prints one row per workload and end-to-end metric and
// reports whether any row is regressed or unresolved.
func compareSets(w io.Writer, spec *benchSpec, a, b *resultSet) (bad bool) {
	fmt.Fprintf(w, "%-15s %-20s %14s %23s %14s %23s %8s %6s  %s\n",
		"workload", "metric", "median a", "[q1, q3]", "median b", "[q1, q3]", "delta", "bound", "verdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			ma, oka := a.Workloads[wl.Name].Metrics[m.Name]
			mb, okb := b.Workloads[wl.Name].Metrics[m.Name]
			if !oka || !okb {
				fmt.Fprintf(w, "%-15s %-20s missing on one side\n", wl.Name, m.Name)
				bad = true
				continue
			}
			delta, v := verdict(ma, mb, m.Better, m.Bound)
			if v != "ok" {
				bad = true
			}
			fmt.Fprintf(w, "%-15s %-20s %14.6g [%10.5g,%10.5g] %14.6g [%10.5g,%10.5g] %+7.1f%% %5.0f%%  %s\n",
				wl.Name, m.Name, ma.Median, ma.Q1, ma.Q3, mb.Median, mb.Q1, mb.Q3, 100*delta, 100*m.Bound, v)
		}
	}
	return bad
}

// selfCheck measures the current tree twice and fails when the two sets
// disagree: the benchmark's own bounds must hold between runs of the
// same code before they can be held against a change.
func selfCheck(w io.Writer, specPath string, cfg runConfig, runs int) error {
	spec, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	a, err := recordSet(cfg, runs)
	if err != nil {
		return err
	}
	b, err := recordSet(cfg, runs)
	if err != nil {
		return err
	}
	if compareSets(w, spec, a, b) {
		return fmt.Errorf("selfcheck: two sets of runs of the same code disagree beyond the bounds")
	}
	fmt.Fprintln(w, "selfcheck: ok")
	return nil
}
