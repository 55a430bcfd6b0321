package ingest

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"agingmf/internal/aging"
	"agingmf/internal/detect"
	"agingmf/internal/trace"
)

// stopwatch times one arm of an overhead budget: by process CPU time
// where the platform reports it, by the wall clock otherwise.
type stopwatch struct {
	wall time.Time
	cpu  time.Duration
}

func startStopwatch() stopwatch {
	cpu, _ := processCPU()
	return stopwatch{wall: time.Now(), cpu: cpu}
}

func (s stopwatch) elapsed() time.Duration {
	if cpu, ok := processCPU(); ok {
		return cpu - s.cpu
	}
	return time.Since(s.wall)
}

// budgetPairs is how many run pairs an overhead budget times.
const budgetPairs = 31

// overheadRatio is the estimator of the overhead budgets: it times base
// and arm reps times each, in ABBA order so a steady drift of the
// machine's speed hits both alike, with a GC before every run so no run
// pays for another's garbage, and returns the median of the reps ratios
// arm/base of adjacent runs. On a shared 2-vCPU VM whose speed drifts
// between runs, A/A checks (both arms identical) of the recorder budget
// read 0.87–1.16 as a min-of-3 ratio and 0.95–1.02 as this median over
// 31 pairs, six runs each.
func overheadRatio(reps int, base, arm func() time.Duration) float64 {
	ratios := make([]float64, reps)
	for i := range ratios {
		var b, a time.Duration
		if i%2 == 0 {
			runtime.GC()
			b = base()
			runtime.GC()
			a = arm()
		} else {
			runtime.GC()
			a = arm()
			runtime.GC()
			b = base()
		}
		ratios[i] = float64(a) / float64(b)
	}
	sort.Float64s(ratios)
	return ratios[reps/2]
}

// traceOverheadRun pushes iters batches of size pairs through a fresh
// registry configured with the given tracing options and returns the
// elapsed time (see stopwatch). The registry is closed inside the timed
// window:
// backpressure fills the queue almost immediately, so the measured time
// is end-to-end shard consumption, and the close accounts for the
// residual drain.
func traceOverheadRun(tb testing.TB, iters, size, sampleEvery, recorderDepth int) time.Duration {
	tb.Helper()
	r, err := NewRegistry(Config{
		Monitor:             testMonitorConfig(),
		TraceSampleEvery:    sampleEvery,
		FlightRecorderDepth: recorderDepth,
	})
	if err != nil {
		tb.Fatal(err)
	}
	pairs := make([][2]float64, size)
	for i := range pairs {
		pairs[i] = [2]float64{1e9 - float64(i), float64(i)}
	}
	sw := startStopwatch()
	for i := 0; i < iters; i++ {
		if err := r.IngestColumns(columnBatch("bench-0000", pairs)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := r.Close(); err != nil {
		tb.Fatal(err)
	}
	return sw.elapsed()
}

// BenchmarkIngestTraceOverhead is the paired overhead benchmark: the same
// batched workload with tracing off, sampled at 1/1024, traced on every
// unit, and with the flight recorder on. Compare ns/sample across the
// sub-benchmarks to read the cost of each observability layer.
func BenchmarkIngestTraceOverhead(b *testing.B) {
	const size = 256
	cases := []struct {
		name          string
		sampleEvery   int
		recorderDepth int
	}{
		{"off", 0, 0},
		{"sampled=1024", 1024, 0},
		{"sampled=1", 1, 0},
		{"recorder=64", 0, 64},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			r, err := NewRegistry(Config{
				Monitor:             testMonitorConfig(),
				TraceSampleEvery:    c.sampleEvery,
				FlightRecorderDepth: c.recorderDepth,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer r.Close()
			pairs := make([][2]float64, size)
			for i := range pairs {
				pairs[i] = [2]float64{1e9 - float64(i), float64(i)}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := r.IngestColumns(columnBatch("bench-0000", pairs)); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*size), "ns/sample")
			if err := r.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// TestTraceOverheadBudget enforces the tracing cost contract in CI: at the
// recommended production rate (one traced unit in 1024) end-to-end batched
// throughput must stay within the documented 5% of tracing-off — asserted
// at 10% here to absorb shared-runner noise on top of the documented
// budget. The flight recorder is off in both arms: it has its own
// budget, TestRecorderOverheadBudget.
func TestTraceOverheadBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("timing assertion is meaningless under the race detector")
	}
	if testing.Short() {
		t.Skip("timing assertion skipped in -short mode")
	}
	// Even a CPU-time ratio is only meaningful on an otherwise-idle
	// machine: inside `go test ./...` this package races a dozen others
	// for cores and caches. The bench-smoke target
	// runs this test alone (and CI runs bench-smoke), so the assertion is
	// opt-in via the environment rather than silently flaky in the suite.
	if os.Getenv("AGINGMF_TRACE_BUDGET") == "" {
		t.Skip("timing assertion runs in isolation via `make bench-smoke` (AGINGMF_TRACE_BUDGET=1)")
	}
	const (
		iters = 2000
		size  = 256
	)
	traceOverheadRun(t, iters, size, 0, 0) // warm up code paths and the page cache once
	ratio := overheadRatio(budgetPairs,
		func() time.Duration { return traceOverheadRun(t, iters, size, 0, 0) },
		func() time.Duration { return traceOverheadRun(t, iters, size, 1024, 0) })
	t.Logf("sampled(1/1024)/off: median paired ratio %.3f", ratio)
	if ratio > 1.10 {
		t.Fatalf("1/1024 sampling costs %.1f%%; budget is 5%% (+CI slack)", (ratio-1)*100)
	}
}

// recorderOverheadRun ingests trace as binary-wire column batches of
// frame samples into sources fresh sources, under the default monitor
// configuration and a flight recorder of the given depth (0 = off), and returns the elapsed time
// (see stopwatch). The registry is closed inside the timed window, as in
// traceOverheadRun.
func recorderOverheadRun(tb testing.TB, trace [][2]float64, sources, frame, depth int) time.Duration {
	tb.Helper()
	r, err := NewRegistry(Config{Monitor: aging.DefaultConfig(), FlightRecorderDepth: depth})
	if err != nil {
		tb.Fatal(err)
	}
	ids := make([]string, sources)
	for s := range ids {
		ids[s] = fmt.Sprintf("m%03d", s)
	}
	sw := startStopwatch()
	for off := 0; off < len(trace); off += frame {
		end := min(off+frame, len(trace))
		for _, id := range ids {
			if err := r.IngestColumns(columnBatch(id, trace[off:end])); err != nil {
				tb.Fatal(err)
			}
		}
	}
	if err := r.Close(); err != nil {
		tb.Fatal(err)
	}
	elapsed := sw.elapsed()
	if got := r.Accepted(); got != uint64(sources*len(trace)) {
		tb.Fatalf("accepted %d samples, want %d", got, sources*len(trace))
	}
	return elapsed
}

// TestRecorderOverheadBudget enforces the flight recorder's cost
// contract: a recorded source runs the same column kernels as an
// unrecorded one, so binary ingestion of a memsim trace at the shipped
// default depth (64) must stay within 10% of the recorder-off run.
// Like TestTraceOverheadBudget it runs in isolation via `make
// bench-smoke` (AGINGMF_TRACE_BUDGET=1).
func TestRecorderOverheadBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("timing assertion is meaningless under the race detector")
	}
	if testing.Short() {
		t.Skip("timing assertion skipped in -short mode")
	}
	if os.Getenv("AGINGMF_TRACE_BUDGET") == "" {
		t.Skip("timing assertion runs in isolation via `make bench-smoke` (AGINGMF_TRACE_BUDGET=1)")
	}
	const (
		sources = 64
		frame   = 256
		depth   = 64
	)
	trace := leakTrace(t, 1, 1.2, 4096)
	recorderOverheadRun(t, trace, sources, frame, depth) // warm up code paths and pools
	ratio := overheadRatio(budgetPairs,
		func() time.Duration { return recorderOverheadRun(t, trace, sources, frame, 0) },
		func() time.Duration { return recorderOverheadRun(t, trace, sources, frame, depth) })
	t.Logf("%d samples: depth %d/off: median paired ratio %.3f", sources*len(trace), depth, ratio)
	if ratio > 1.10 {
		t.Fatalf("a depth-%d flight recorder costs %.1f%%; budget is 10%%", depth, (ratio-1)*100)
	}
}

// setOverheadRun feeds a trace through a fresh MonitorSet of the given
// detectors at agingd's default configuration, as the shard does: one
// AddColumns call per unit-sample slice of the columns. It returns the
// elapsed time (see stopwatch).
func setOverheadRun(tb testing.TB, free, swap []float64, unit int, kinds ...string) time.Duration {
	tb.Helper()
	set, err := detect.New(kinds, detect.Config{Monitor: aging.DefaultConfig()})
	if err != nil {
		tb.Fatal(err)
	}
	sw := startStopwatch()
	for off := 0; off < len(free); off += unit {
		end := min(off+unit, len(free))
		set.AddColumns(free[off:end], swap[off:end])
	}
	elapsed := sw.elapsed()
	if got := set.SamplesSeen(); got != len(free) {
		tb.Fatalf("set consumed %d samples, want %d", got, len(free))
	}
	return elapsed
}

// TestMonitorSetOverheadBudget enforces the detector suite's cost
// envelope on the daemon's path: a memsim trace through
// MonitorSet.AddColumns in 256-sample units costs a two-detector set
// (holder+entropy) at most 2.5x what it costs holder alone, as the
// median paired ratio (see overheadRatio). Like the other budgets it
// runs in isolation via `make bench-smoke` (AGINGMF_DETECT_BUDGET=1).
func TestMonitorSetOverheadBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("timing assertion is meaningless under the race detector")
	}
	if testing.Short() {
		t.Skip("timing assertion skipped in -short mode")
	}
	if os.Getenv("AGINGMF_DETECT_BUDGET") == "" {
		t.Skip("timing assertion runs in isolation via `make bench-smoke` (AGINGMF_DETECT_BUDGET=1)")
	}
	const unit = 256
	trace := leakTrace(t, 1, 0.6, 16384)
	free, swap := make([]float64, len(trace)), make([]float64, len(trace))
	for i, p := range trace {
		free[i], swap[i] = p[0], p[1]
	}
	setOverheadRun(t, free, swap, unit, detect.KindHolder, detect.KindEntropy) // warm up
	ratio := overheadRatio(budgetPairs,
		func() time.Duration { return setOverheadRun(t, free, swap, unit, detect.KindHolder) },
		func() time.Duration {
			return setOverheadRun(t, free, swap, unit, detect.KindHolder, detect.KindEntropy)
		})
	t.Logf("%d samples in %d-sample units: holder+entropy/holder median paired ratio %.3f", len(free), unit, ratio)
	if ratio > 2.5 {
		t.Fatalf("two-detector set costs %.2fx the single-detector baseline, budget is 2.5x", ratio)
	}
}

// TestTraceOverheadRunsAreExact sanity-checks the harness itself: every
// batch must be accepted in both arms, or the timing comparison is
// meaningless.
func TestTraceOverheadRunsAreExact(t *testing.T) {
	r, err := NewRegistry(Config{Monitor: testMonitorConfig(), TraceSampleEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	pairs := [][2]float64{{1e9, 0}, {1e9 - 1, 1}}
	const iters = 100
	for i := 0; i < iters; i++ {
		if err := r.IngestColumns(columnBatch("bench-0000", pairs)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if got := r.Accepted(); got != iters*uint64(len(pairs)) {
		t.Fatalf("accepted %d, want %d", got, iters*len(pairs))
	}
	detects := 0
	for _, sp := range r.Tracer().Spans() {
		if sp.Stage == trace.StageDetect {
			detects++
		}
	}
	if detects != iters/8 {
		t.Fatalf("traced %d units (detect spans), want %d", detects, iters/8)
	}
}
