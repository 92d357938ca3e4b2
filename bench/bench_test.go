package main

import (
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{0.5, 50}, {0.95, 95}, {1, 100}, {0.001, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
}

// Python: statistics.quantiles([3,1,4,1,5,9,2,6,5,3], n=4) == [1.75, 3.5, 5.25]
// and statistics.quantiles([10,20,30,40,50], n=4) == [15.0, 30.0, 45.0].
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if q1 != 1.75 || q3 != 5.25 {
		t.Errorf("quartiles = %g, %g, want 1.75, 5.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{10, 20, 30, 40, 50})
	if q1 != 15 || q3 != 45 {
		t.Errorf("quartiles = %g, %g, want 15, 45", q1, q3)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
	if s := spread([]float64{10, 20, 30, 40, 50}); s != 1 {
		t.Errorf("spread = %g, want 1", s)
	}
}

// An operation of 100 with two layer calls of 30 and 50, the second of
// which calls a third layer for 20: the op keeps 20, engine 30, query
// 30, exec 20.
func TestSelfTimes(t *testing.T) {
	tr := newTracer(time.Now())
	tr.spans = []span{
		{Name: spOpQuery, Parent: -1, Start: 0, End: 100},
		{Name: spEngineSnapshot, Parent: 0, Start: 10, End: 40},
		{Name: spQueryCompile, Parent: 0, Start: 40, End: 90},
		{Name: spExecDrain, Parent: 2, Start: 50, End: 70},
	}
	got := selfTimes(tr.spans)
	want := map[string]time.Duration{"op": 20, "engine": 30, "query": 30, "exec": 20}
	for layer, d := range want {
		if got[layer] != d {
			t.Errorf("self time of %s = %d, want %d", layer, got[layer], d)
		}
	}
	if len(got) != len(want) {
		t.Errorf("layers %v, want %v", got, want)
	}
}

func TestTracerGroupsSpansByOperation(t *testing.T) {
	tr := newTracer(time.Now())
	a := tr.begin(spOpInsert, -1)
	a1 := tr.begin(spEngineInsert, a)
	tr.end(a1)
	tr.end(a)
	b := tr.begin(spOpQuery, -1)
	tr.end(b)
	if tr.spans[a].Op != tr.spans[a1].Op || tr.spans[a].Op == tr.spans[b].Op {
		t.Errorf("op ids %d %d %d", tr.spans[a].Op, tr.spans[a1].Op, tr.spans[b].Op)
	}
	var off *tracer
	if i := off.begin(spOpQuery, -1); i != -1 {
		t.Errorf("a nil tracer recorded span %d", i)
	}
	off.end(-1)
}

// hash digests an operation, for the check that a seed fixes the stream.
func (op kvOp) hash() uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(op.kind))
	put(uint64(op.part))
	for _, r := range op.rows {
		put(uint64(r[0].I))
		put(uint64(r[1].I))
	}
	for _, id := range op.rowIDs {
		put(id)
	}
	h.Write([]byte(op.column))
	for _, v := range op.values {
		put(uint64(v.I))
	}
	return h.Sum64()
}

func streamHash(seed int64, n int) uint64 {
	s := newKVStream(seed, microMix, loadCounts(8000, partitions), []int{0, 1, 2, 3}, 0, 8000, 16000)
	var h uint64
	for i := 0; i < n; i++ {
		h = foldRow(h, s.next().hash())
	}
	return h
}

func TestSeedFixesTheStream(t *testing.T) {
	if streamHash(7, 500) != streamHash(7, 500) {
		t.Error("the same seed gave two different streams")
	}
	if streamHash(7, 500) == streamHash(8, 500) {
		t.Error("two seeds gave the same stream")
	}
}

// The model replays a stream with plain slice operations; its row count
// must follow the stream's own bookkeeping.
func TestModelFollowsStream(t *testing.T) {
	keys, vals := make([]int64, 4000), make([]int64, 4000)
	for i := range keys {
		keys[i], vals[i] = int64(i), int64(i)
	}
	model := newKVModel(keys, vals, partitions)
	s := newKVStream(1, microMix, loadCounts(len(keys), partitions), []int{0, 1, 2, 3}, 0, 4000, 8000)
	for i := 0; i < 300; i++ {
		model.apply(s.next(), true)
	}
	for p, rows := range model.parts {
		if len(rows) != s.counts[p] {
			t.Errorf("partition %d: model holds %d rows, the stream counts %d", p, len(rows), s.counts[p])
		}
	}
}

func TestVerdict(t *testing.T) {
	stats := func(vs ...float64) metricStats {
		q1, q3 := quartiles(vs)
		return metricStats{Median: median(vs), Q1: q1, Q3: q3, Values: vs}
	}
	steady := stats(100, 101, 99, 100, 100)
	for _, c := range []struct {
		name   string
		b      metricStats
		better string
		want   string
	}{
		{"same", stats(100, 100, 101, 99, 100), "lower", "ok"},
		{"slower", stats(120, 121, 119, 120, 120), "lower", "regressed"},
		{"faster", stats(80, 81, 79, 80, 80), "lower", "ok"},
		{"less throughput", stats(80, 81, 79, 80, 80), "higher", "regressed"},
		{"noisy", stats(60, 100, 140, 90, 110), "lower", "unresolved"},
	} {
		if _, got := verdict(steady, c.b, c.better, 0.10); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json and the harness must declare the same metrics.
func TestDeclarationMatchesHarness(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json declares %d end-to-end metrics, the harness %d", len(spec.EndToEnd), len(endToEnd))
	}
	var sawSetup bool
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %s [%s], the harness %s [%s]", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %g, better %q", m.Name, m.Bound, m.Better)
		}
		sawSetup = sawSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !sawSetup {
		t.Error("no setup_s [s, lower] among the end-to-end metrics")
	}
	if len(spec.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the harness %d", len(spec.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %s [%s], the harness %s [%s]", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) || seen[d.name] {
			t.Errorf("metric %q [%s] breaks the naming rules or repeats", d.name, d.unit)
		}
		seen[d.name] = true
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the harness %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: %s vs %s", i, w.Name, workloadNames[i])
		}
	}
}

// Every workload at tiny scale, untraced and traced: every declared
// metric is reported, nothing fails, and the traced run leaves a trace
// file with spans for the layers the harness calls and probes.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{
				workload: name, seed: 5, seconds: 0.4, trace: traced, scale: scales["tiny"],
				work: t.TempDir(), out: t.TempDir(),
			}
			res, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d: %v", name, traced, res.Correct, res.Attempted, res.Failed, res.problems)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics reported, %d declared", name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.name]
				if !ok || v.Unit != d.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v", name, traced, d.name, v)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", name, d.name, v.Value)
				}
			}
			if _, err := json.Marshal(res); err != nil {
				t.Errorf("%s: result line: %v", name, err)
			}
			if !traced {
				continue
			}
			data, err := os.ReadFile(res.tracePath)
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFileJSON
			if err := json.Unmarshal(data, &tf); err != nil {
				t.Fatalf("%s: trace file: %v", name, err)
			}
			for _, layer := range []string{"op", "engine", "query", "exec", "probe"} {
				if tf.Layers[layer].Spans == 0 {
					t.Errorf("%s: no %s spans in the trace", name, layer)
				}
			}
			names := map[string]bool{}
			for _, s := range tf.Spans {
				names[s.Name] = true
			}
			for _, n := range []spanName{spProbeBitmap, spProbeCore, spProbePDT, spProbeStorage, spProbeWAL, spProbePlan, spEngineCheckpoint, spEngineRecover} {
				if !names[spanNames[n]] {
					t.Errorf("%s: no %s span in the trace", name, spanNames[n])
				}
			}
		}
	}
}
