package source_test

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"testing"

	"agingmf/internal/aging"
	"agingmf/internal/memsim"
	"agingmf/internal/source"
	"agingmf/internal/trace"
	"agingmf/internal/workload"
)

// recorderMonitorConfig is a small-window monitor so warmup, jumps and
// every phase happen within a few thousand memsim samples.
func recorderMonitorConfig() aging.Config {
	cfg := aging.DefaultConfig()
	cfg.MaxRadius = 8
	cfg.VolatilityWindow = 8
	cfg.DetectorWarmup = 8
	cfg.Refractory = 4
	return cfg
}

// leakPairs simulates one machine whose server leaks 9 pages per tick
// and returns up to n of its (free, swap) samples.
func leakPairs(t *testing.T, seed int64, n int) [][2]float64 {
	t.Helper()
	wcfg := workload.DefaultDriverConfig()
	server := *wcfg.Server
	server.LeakPagesPerTick = 9
	wcfg.Server = &server
	sim, err := source.NewSim(source.SimConfig{
		Seed: seed, Machine: memsim.DefaultConfig(), Workload: wcfg, MaxTicks: n,
	})
	if err != nil {
		t.Fatal(err)
	}
	var out [][2]float64
	for {
		it, err := sim.Next(context.Background())
		if err != nil {
			return out // EOF at MaxTicks, or the machine crashed
		}
		out = append(out, it.Pairs...)
	}
}

// sinkOracle feeds pairs one at a time through AddTraced and returns the
// flight record of every sample plus the monitor's final state.
func sinkOracle(t *testing.T, pairs [][2]float64) ([]trace.Record, []byte) {
	t.Helper()
	mon, err := aging.NewDualMonitor(recorderMonitorConfig())
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]trace.Record, len(pairs))
	for i, p := range pairs {
		js := mon.AddTraced(p[0], p[1], nil)
		sf, ss := mon.LastStats()
		recs[i] = trace.Record{
			Seq: uint64(mon.SamplesSeen()), Free: p[0], Swap: p[1],
			ScoreFree: sf, ScoreSwap: ss, Phase: mon.Phase().String(), Jumps: len(js),
		}
	}
	blob, err := mon.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	return recs, blob
}

// sameRecords reports the first difference between two record runs,
// ignoring Wall and, when timed is set, the trace annotation.
func sameRecords(got, want []trace.Record, timed bool) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d records, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		g.Wall, w.Wall = 0, 0
		if timed {
			g.TraceSeq, g.StageNs = 0, [trace.NumStages]int64{}
		}
		if g != w {
			return fmt.Sprintf("record %d:\n got %+v\nwant %+v", i, g, w)
		}
	}
	return ""
}

// TestMonitorSinkRecorderParity: a recording sink folds every item
// through the column kernels, and after each item its recorder holds
// exactly the records the per-sample AddTraced loop would have produced
// (every field but Wall), with monitor state byte-identical — for item
// sizes around the recorder depth, on a memsim leak trace whose jumps
// and phase changes land inside recorded tails.
func TestMonitorSinkRecorderParity(t *testing.T) {
	pairs := leakPairs(t, 3, 3000)
	oracle, oracleState := sinkOracle(t, pairs)
	jumps, phases := 0, map[string]bool{}
	for _, depth := range []int{1, 64, 300} {
		for _, size := range []int{1, 63, 64, 65, 256, 1000} {
			t.Run(fmt.Sprintf("depth=%d/item=%d", depth, size), func(t *testing.T) {
				mon, err := aging.NewDualMonitor(recorderMonitorConfig())
				if err != nil {
					t.Fatal(err)
				}
				fr := trace.NewFlightRecorder(depth)
				snk := source.NewMonitorSink(mon, source.MonitorSinkConfig{Recorder: fr})
				for off := 0; off < len(pairs); off += size {
					end := min(off+size, len(pairs))
					if err := snk.Write(source.Item{Pairs: pairs[off:end]}); err != nil {
						t.Fatal(err)
					}
					want := oracle[max(0, end-depth):end]
					if d := sameRecords(fr.Snapshot(), want, false); d != "" {
						t.Fatalf("after item ending at %d: %s", end, d)
					}
					for _, rec := range want[max(0, len(want)-(end-off)):] {
						jumps += rec.Jumps
						phases[rec.Phase] = true
					}
				}
				state, err := mon.SaveState()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(state, oracleState) {
					t.Fatal("recording sink's state differs from the per-sample oracle")
				}
			})
		}
	}
	if jumps < 10 || len(phases) != 3 {
		t.Fatalf("recorded tails saw %d jumps and phases %v: the parity claim is vacuous", jumps, phases)
	}
}

// TestMonitorSinkTracedSpanParity: a traced, recording sink fed
// multi-pair items emits the same stage span names as one fed pair by
// pair (the per-sample kernel), stamps each item's last record with its
// trace annotation, and matches the oracle everywhere else.
func TestMonitorSinkTracedSpanParity(t *testing.T) {
	pairs := leakPairs(t, 3, 1200)
	oracle, oracleState := sinkOracle(t, pairs)
	stages := func(tr *trace.Tracer) string {
		seen := map[string]bool{}
		for _, sp := range tr.Spans() {
			seen[sp.Stage.String()] = true
		}
		var names []string
		for name := range seen {
			names = append(names, name)
		}
		sort.Strings(names)
		return fmt.Sprint(names)
	}
	run := func(size int) (*trace.Tracer, *trace.FlightRecorder, *aging.DualMonitor) {
		mon, err := aging.NewDualMonitor(recorderMonitorConfig())
		if err != nil {
			t.Fatal(err)
		}
		tr := trace.New(trace.Config{SampleEvery: 1})
		fr := trace.NewFlightRecorder(64)
		snk := source.NewMonitorSink(mon, source.MonitorSinkConfig{Tracer: tr, Recorder: fr})
		for off := 0; off < len(pairs); off += size {
			end := min(off+size, len(pairs))
			if err := snk.Write(source.Item{Pairs: pairs[off:end]}); err != nil {
				t.Fatal(err)
			}
			recs := fr.Snapshot()
			if last := recs[len(recs)-1]; last.TraceSeq == 0 || last.StageNs[trace.StageDetect] == 0 {
				t.Fatalf("item ending at %d: last record lacks its trace annotation: %+v", end, last)
			}
			if d := sameRecords(recs, oracle[max(0, end-64):end], true); d != "" {
				t.Fatalf("item ending at %d: %s", end, d)
			}
		}
		return tr, fr, mon
	}
	rowTr, _, rowMon := run(1)
	colTr, _, colMon := run(100)
	if got, want := stages(colTr), stages(rowTr); got != want {
		t.Fatalf("columnar span stages %s, per-sample %s", got, want)
	}
	for _, mon := range []*aging.DualMonitor{rowMon, colMon} {
		state, err := mon.SaveState()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(state, oracleState) {
			t.Fatal("traced sink's state differs from the per-sample oracle")
		}
	}
}
