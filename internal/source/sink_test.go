package source_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"math/rand"
	"testing"
	"time"

	"agingmf/internal/aging"
	"agingmf/internal/gen"
	"agingmf/internal/memsim"
	"agingmf/internal/series"
	"agingmf/internal/source"
	"agingmf/internal/trace"
)

// collectTrace drives the fast-aging rig to its crash and returns the
// recorded trace sink (the stressgen pipeline, in miniature).
func collectTrace(t testing.TB, seed int64) *source.TraceSink {
	return collectTraceLeak(t, seed, 6)
}

// collectTraceLeak is collectTrace with a chosen leak rate: slower leaks
// yield longer traces (the offline analyzer needs ~1350 samples of
// warmup before its detector arms).
func collectTraceLeak(t testing.TB, seed int64, leak float64) *source.TraceSink {
	t.Helper()
	m, d := newRigLeak(t, seed, leak)
	src := source.NewSimFromParts(m, d, 20000, 1)
	snk := source.NewTraceSink(time.Second, 1)
	ctx := context.Background()
	for {
		it, err := src.Next(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if err := snk.Write(it); err != nil {
			t.Fatalf("Write: %v", err)
		}
		if it.Crash != memsim.CrashNone {
			break
		}
	}
	if snk.Crash() == memsim.CrashNone {
		t.Fatal("rig did not crash within 20000 ticks")
	}
	return snk
}

func TestTraceSinkRecordsRun(t *testing.T) {
	snk := collectTrace(t, 1)
	if snk.Len() < 100 {
		t.Fatalf("only %d samples recorded", snk.Len())
	}
	if snk.CrashTick() != snk.Len()-1 {
		t.Fatalf("crash tick %d, want last sample %d (decimation 1)", snk.CrashTick(), snk.Len()-1)
	}
	cols := snk.Series()
	wantNames := []string{"free_memory_bytes", "used_swap_bytes", "swap_traffic_pages", "processes"}
	if len(cols) != len(wantNames) {
		t.Fatalf("got %d columns, want %d", len(cols), len(wantNames))
	}
	for i, c := range cols {
		if c.Name != wantNames[i] {
			t.Errorf("column %d named %q, want %q", i, c.Name, wantNames[i])
		}
		if c.Len() != snk.Len() {
			t.Errorf("column %q has %d samples, want %d", c.Name, c.Len(), snk.Len())
		}
	}
}

func TestTraceSinkCrashTickDecimated(t *testing.T) {
	snk := source.NewTraceSink(10*time.Second, 10)
	for i := 0; i < 3; i++ {
		it := source.Item{
			Pairs:    [][2]float64{{1, 2}},
			Counters: []memsim.Counters{{FreeMemoryBytes: 1, UsedSwapBytes: 2}},
		}
		if i == 2 {
			it.Crash = memsim.CrashOOM
			it.CrashTick = 25
		}
		if err := snk.Write(it); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if snk.CrashTick() != 20 {
		t.Fatalf("CrashTick() = %d, want sample index 2 x decimation 10 = 20", snk.CrashTick())
	}
}

func TestTraceSinkRejectsWireItems(t *testing.T) {
	snk := source.NewTraceSink(time.Second, 1)
	err := snk.Write(source.Item{Pairs: [][2]float64{{1, 2}}})
	if !errors.Is(err, source.ErrBadConfig) {
		t.Fatalf("err = %v, want ErrBadConfig for an item without machine counters", err)
	}
	if snk.CrashTick() != -1 {
		t.Fatalf("empty sink CrashTick() = %d, want -1", snk.CrashTick())
	}
}

func TestTraceSinkCSVRoundTrip(t *testing.T) {
	snk := collectTrace(t, 1)
	var buf bytes.Buffer
	if err := snk.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	cols, err := series.ReadCSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if len(cols) != 4 || cols[0].Len() != snk.Len() {
		t.Fatalf("round trip: %d columns x %d samples, want 4 x %d", len(cols), cols[0].Len(), snk.Len())
	}
	for i, v := range snk.Series()[0].Values {
		if cols[0].Values[i] != v {
			t.Fatalf("sample %d: %v != %v", i, cols[0].Values[i], v)
		}
	}
}

func TestMonitorSinkCounts(t *testing.T) {
	mon, err := aging.NewDualMonitor(aging.DefaultConfig())
	if err != nil {
		t.Fatalf("NewDualMonitor: %v", err)
	}
	snk := source.NewMonitorSink(mon, source.MonitorSinkConfig{})
	if err := snk.Write(source.Item{}); err != nil {
		t.Fatalf("empty item: %v", err)
	}
	if snk.Samples() != 0 {
		t.Fatalf("empty item counted: %d", snk.Samples())
	}
	if err := snk.Write(source.Item{Pairs: [][2]float64{{1, 2}, {3, 4}}}); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if snk.Samples() != 2 || mon.SamplesSeen() != 2 {
		t.Fatalf("sink %d / monitor %d samples, want 2 / 2", snk.Samples(), mon.SamplesSeen())
	}
}

// regimeChangeSignal mirrors the aging package's detection fixture: a
// smooth fBm prefix that turns into alternating smooth/rough blocks, so
// the Hölder volatility shifts and the jump detector fires.
func regimeChangeSignal(t *testing.T, n int, seed int64) []float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	half := n / 2
	base, err := gen.FBM(half, 0.6, rng)
	if err != nil {
		t.Fatalf("FBM: %v", err)
	}
	out := make([]float64, 0, n)
	out = append(out, base...)
	level := base[len(base)-1]
	scale := 0.0
	for _, v := range base {
		if a := math.Abs(v); a > scale {
			scale = a
		}
	}
	if scale == 0 {
		scale = 1
	}
	block := 64
	for len(out) < n {
		if (len(out)/block)%2 == 0 {
			for i := 0; i < block && len(out) < n; i++ {
				level += 0.01 * scale / float64(block)
				out = append(out, level)
			}
		} else {
			for i := 0; i < block && len(out) < n; i++ {
				out = append(out, level+0.5*scale*rng.NormFloat64())
			}
		}
	}
	return out
}

// TestReplayMonitorParity is the pipeline's core correctness claim: a
// recorded trace read back from CSV and written into a MonitorSink in
// 64-pair items drives the online monitor to exactly the state the
// offline aging.Analyze computes from the same series — jumps, indices
// and final phase.
func TestReplayMonitorParity(t *testing.T) {
	free := series.Series{Name: "free_memory_bytes", Step: time.Second,
		Values: regimeChangeSignal(t, 8192, 5)}
	swap := series.Series{Name: "used_swap_bytes", Step: time.Second,
		Values: regimeChangeSignal(t, 8192, 9)}
	var buf bytes.Buffer
	if err := series.WriteCSV(&buf, free, swap); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	cols, err := series.ReadCSV(&buf)
	if err != nil || len(cols) != 2 {
		t.Fatalf("ReadCSV: %d columns, %v", len(cols), err)
	}

	cfg := aging.DefaultConfig()
	mon, err := aging.NewDualMonitor(cfg)
	if err != nil {
		t.Fatalf("NewDualMonitor: %v", err)
	}
	msink := source.NewMonitorSink(mon, source.MonitorSinkConfig{})
	for off := 0; off < cols[0].Len(); off += 64 {
		end := min(off+64, cols[0].Len())
		pairs := make([][2]float64, 0, end-off)
		for i := off; i < end; i++ {
			pairs = append(pairs, [2]float64{cols[0].Values[i], cols[1].Values[i]})
		}
		if err := msink.Write(source.Item{Pairs: pairs}); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if msink.Samples() != free.Len() {
		t.Fatalf("replayed %d samples, wrote %d", msink.Samples(), free.Len())
	}

	for _, offline := range []struct {
		name string
		mon  *aging.Monitor
		s    series.Series
	}{
		{"free", mon.FreeMonitor(), free},
		{"swap", mon.SwapMonitor(), swap},
	} {
		res, err := aging.Analyze(offline.s, cfg)
		if err != nil {
			t.Fatalf("Analyze %s: %v", offline.name, err)
		}
		got := offline.mon.Jumps()
		if len(got) != len(res.Jumps) {
			t.Fatalf("%s: online %d jumps, offline %d", offline.name, len(got), len(res.Jumps))
		}
		for j := range got {
			if got[j] != res.Jumps[j] {
				t.Fatalf("%s jump %d: online %+v, offline %+v", offline.name, j, got[j], res.Jumps[j])
			}
		}
		if offline.mon.Phase() != res.FinalPhase {
			t.Fatalf("%s: online phase %v, offline %v", offline.name, offline.mon.Phase(), res.FinalPhase)
		}
	}
	// The regime change must actually exercise the detector.
	if len(mon.Jumps()) == 0 {
		t.Fatal("regime-change trace produced no volatility jumps; parity vacuous")
	}
}

// TestMonitorSinkTracedParity feeds the same signal through a plain sink
// and a traced+recorded one: the monitors must end in byte-identical
// state (the annotated path may never change verdicts), the flight
// recorder tail must mirror the last pairs fed, and the tracer must hold
// detect-stage spans labelled with the configured source.
func TestMonitorSinkTracedParity(t *testing.T) {
	vals := regimeChangeSignal(t, 4096, 17)
	cfg := aging.DefaultConfig()
	plainMon, err := aging.NewDualMonitor(cfg)
	if err != nil {
		t.Fatalf("NewDualMonitor: %v", err)
	}
	tracedMon, err := aging.NewDualMonitor(cfg)
	if err != nil {
		t.Fatalf("NewDualMonitor: %v", err)
	}

	tr := trace.New(trace.Config{SampleEvery: 4})
	fr := trace.NewFlightRecorder(16)
	var plainJumps, tracedJumps int
	plain := source.NewMonitorSink(plainMon, source.MonitorSinkConfig{
		OnJumps: func(_ int, js []aging.DualJump) { plainJumps += len(js) },
	})
	traced := source.NewMonitorSink(tracedMon, source.MonitorSinkConfig{
		Tracer:   tr,
		Recorder: fr,
		Source:   "rig",
		OnJumps:  func(_ int, js []aging.DualJump) { tracedJumps += len(js) },
	})

	const batch = 8
	var last [][2]float64
	for i := 0; i+batch <= len(vals); i += batch {
		pairs := make([][2]float64, batch)
		for j := range pairs {
			pairs[j] = [2]float64{vals[i+j], vals[i+j] * 0.5}
		}
		it := source.Item{Pairs: pairs}
		if err := plain.Write(it); err != nil {
			t.Fatalf("plain Write: %v", err)
		}
		if err := traced.Write(it); err != nil {
			t.Fatalf("traced Write: %v", err)
		}
		last = pairs
	}

	if plainJumps == 0 {
		t.Fatal("fixture fired no jumps; parity claim is vacuous")
	}
	if plainJumps != tracedJumps {
		t.Errorf("jumps diverged: plain %d, traced %d", plainJumps, tracedJumps)
	}
	a, err := plainMon.SaveState()
	if err != nil {
		t.Fatalf("SaveState: %v", err)
	}
	b, err := tracedMon.SaveState()
	if err != nil {
		t.Fatalf("SaveState: %v", err)
	}
	if !bytes.Equal(a, b) {
		t.Error("traced sink diverged from plain sink (SaveState differs)")
	}

	recs := fr.Snapshot()
	if len(recs) != 16 {
		t.Fatalf("recorder holds %d records, want full depth 16", len(recs))
	}
	tail := recs[len(recs)-1]
	wantPair := last[len(last)-1]
	if tail.Free != wantPair[0] || tail.Swap != wantPair[1] {
		t.Errorf("recorder tail (%g,%g), want last pair (%g,%g)",
			tail.Free, tail.Swap, wantPair[0], wantPair[1])
	}
	if tail.Seq != uint64(tracedMon.SamplesSeen()) {
		t.Errorf("recorder tail seq %d, want %d", tail.Seq, tracedMon.SamplesSeen())
	}

	var detect int
	for _, sp := range tr.Spans() {
		if sp.Stage == trace.StageDetect {
			detect++
			if sp.Source != "rig" {
				t.Fatalf("span source %q, want rig", sp.Source)
			}
		}
	}
	if detect == 0 {
		t.Error("no detect-stage spans recorded")
	}
}

// TestMonitorSinkRecorderOnly keeps the recorder usable with tracing off:
// records still accumulate, and none carry a trace sequence.
func TestMonitorSinkRecorderOnly(t *testing.T) {
	mon, err := aging.NewDualMonitor(aging.DefaultConfig())
	if err != nil {
		t.Fatalf("NewDualMonitor: %v", err)
	}
	fr := trace.NewFlightRecorder(8)
	snk := source.NewMonitorSink(mon, source.MonitorSinkConfig{Recorder: fr})
	for i := 0; i < 5; i++ {
		if err := snk.Write(source.Item{Pairs: [][2]float64{{float64(i), 1}}}); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	recs := fr.Snapshot()
	if len(recs) != 5 {
		t.Fatalf("recorder holds %d records, want 5", len(recs))
	}
	for _, r := range recs {
		if r.TraceSeq != 0 {
			t.Errorf("record %d carries trace seq %d with tracing off", r.Seq, r.TraceSeq)
		}
	}
}
