package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// spanName identifies what a span covers. The part before the first dot
// is the layer (one of this repository's packages) the time is charged
// to; "op" spans are the roots that group the layer calls of one
// operation, "probe" spans are the isolated layer probes run after the
// measured phase.
type spanName uint8

const (
	spOpQuery spanName = iota
	spOpInsert
	spOpDelete
	spOpModify
	spOpCheckpoint
	spOpRecover
	spEngineInsert
	spEngineDelete
	spEngineModify
	spEngineSnapshot
	spEngineRelease
	spEngineCheckpoint
	spEngineRecover
	spQueryCompile
	spExecDrain
	spProbeBitmap
	spProbeCore
	spProbePDT
	spProbeStorage
	spProbeWAL
	spProbePlan
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spOpQuery:          "op.query",
	spOpInsert:         "op.insert",
	spOpDelete:         "op.delete",
	spOpModify:         "op.modify",
	spOpCheckpoint:     "op.checkpoint",
	spOpRecover:        "op.recover",
	spEngineInsert:     "engine.insert",
	spEngineDelete:     "engine.delete",
	spEngineModify:     "engine.modify",
	spEngineSnapshot:   "engine.snapshot",
	spEngineRelease:    "engine.snapshot_close",
	spEngineCheckpoint: "engine.checkpoint_to_disk",
	spEngineRecover:    "engine.recover",
	spQueryCompile:     "query.compile",
	spExecDrain:        "exec.drain",
	spProbeBitmap:      "probe.bitmap",
	spProbeCore:        "probe.core",
	spProbePDT:         "probe.pdt",
	spProbeStorage:     "probe.storage",
	spProbeWAL:         "probe.wal",
	spProbePlan:        "probe.plan",
}

func (n spanName) layer() string {
	s := spanNames[n]
	return s[:strings.IndexByte(s, '.')]
}

// span is one timed interval. Parent indexes the same tracer's spans
// (-1 for a root); spans of one operation share Op.
type span struct {
	Name       spanName
	Parent, Op int32
	Start, End int64 // ns since the tracer's epoch
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps the spans of one client goroutine in memory; it is never
// shared, so recording takes no lock. A nil tracer records nothing,
// which is how the untraced run calls the same code.
type tracer struct {
	epoch  time.Time
	spans  []span
	nextOp int32
}

func newTracer(epoch time.Time) *tracer {
	return &tracer{epoch: epoch, spans: make([]span, 0, 1<<16)}
}

// begin opens a span under parent (-1 starts a new operation) and
// returns its index.
func (t *tracer) begin(name spanName, parent int32) int32 {
	if t == nil {
		return -1
	}
	op := t.nextOp
	if parent >= 0 {
		op = t.spans[parent].Op
	} else {
		t.nextOp++
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: op, Start: int64(time.Since(t.epoch))})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	t.spans[i].End = int64(time.Since(t.epoch))
}

// selfTimes charges every span's duration minus the part its children
// cover to the span's layer.
func selfTimes(spans []span) map[string]time.Duration {
	covered := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			p := spans[s.Parent]
			lo, hi := max(s.Start, p.Start), min(s.End, p.End)
			if hi > lo {
				covered[s.Parent] += hi - lo
			}
		}
	}
	out := map[string]time.Duration{}
	for i, s := range spans {
		if self := s.End - s.Start - covered[i]; self > 0 {
			out[s.Name.layer()] += time.Duration(self)
		}
	}
	return out
}

// durations returns the ascending durations in ms of every span called name.
func durations(tracers []*tracer, name spanName) []float64 {
	var ds []time.Duration
	for _, t := range tracers {
		for _, s := range t.spans {
			if s.Name == name {
				ds = append(ds, s.dur())
			}
		}
	}
	return sortedMillis(ds)
}

// spanCost measures what recording one span costs, so the traced run
// can state its own overhead.
func spanCost() time.Duration {
	const n = 200_000
	t := newTracer(time.Now())
	t0 := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin(spOpQuery, -1))
	}
	return time.Since(t0) / n
}

// maxTraceOps bounds the operations written to the trace file; beyond
// it every k-th operation of each client is kept and k is recorded.
const maxTraceOps = 20_000

type traceSpanJSON struct {
	Client int    `json:"client"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	OpID   int32  `json:"op_id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Probe  bool   `json:"probe,omitempty"`
}

type traceLayerJSON struct {
	Spans int     `json:"spans"`
	BusyS float64 `json:"busy_s"`
	SelfS float64 `json:"self_s"`
}

type traceFileJSON struct {
	Workload     string                    `json:"workload"`
	Seed         int64                     `json:"seed"`
	SampledEvery int                       `json:"sampled_every"`
	TotalSpans   int                       `json:"total_spans"`
	Layers       map[string]traceLayerJSON `json:"layers"`
	Metrics      map[string]metricValue    `json:"metrics"`
	Spans        []traceSpanJSON           `json:"spans"`
}

// writeTrace writes the run's spans once, at exit. Layer totals cover
// every span recorded; the span list is sampled by operation.
func writeTrace(dir, workload string, seed int64, tracers []*tracer, metrics map[string]metricValue) (string, error) {
	f := traceFileJSON{Workload: workload, Seed: seed, SampledEvery: 1, Layers: map[string]traceLayerJSON{}, Metrics: metrics}
	var ops int
	for _, t := range tracers {
		ops += int(t.nextOp)
		f.TotalSpans += len(t.spans)
	}
	if ops > maxTraceOps {
		f.SampledEvery = (ops + maxTraceOps - 1) / maxTraceOps
	}
	for ci, t := range tracers {
		for layer, d := range selfTimes(t.spans) {
			l := f.Layers[layer]
			l.SelfS += d.Seconds()
			f.Layers[layer] = l
		}
		for i, s := range t.spans {
			l := f.Layers[s.Name.layer()]
			l.Spans++
			l.BusyS += s.dur().Seconds()
			f.Layers[s.Name.layer()] = l
			probe := s.Name.layer() == "probe"
			if !probe && int(s.Op)%f.SampledEvery != 0 {
				continue
			}
			f.Spans = append(f.Spans, traceSpanJSON{
				Client: ci, ID: int32(i), Parent: s.Parent, OpID: s.Op,
				Name: spanNames[s.Name], Start: s.Start, End: s.End, Probe: probe,
			})
		}
	}
	sort.SliceStable(f.Spans, func(i, j int) bool { return f.Spans[i].Start < f.Spans[j].Start })
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.json")
	data, err := json.Marshal(f)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
