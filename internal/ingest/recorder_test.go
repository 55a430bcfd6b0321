package ingest

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"agingmf/internal/detect"
	"agingmf/internal/memsim"
	transport "agingmf/internal/source"
	"agingmf/internal/trace"
	"agingmf/internal/workload"
)

// leakTrace simulates one machine whose server leaks leak pages per tick
// under the default stress workload, for up to n samples, and returns its
// (free, swap) trace.
func leakTrace(t testing.TB, seed int64, leak float64, n int) [][2]float64 {
	t.Helper()
	wcfg := workload.DefaultDriverConfig()
	server := *wcfg.Server
	server.LeakPagesPerTick = leak
	wcfg.Server = &server
	sim, err := transport.NewSim(transport.SimConfig{
		Seed:     seed,
		Machine:  memsim.DefaultConfig(),
		Workload: wcfg,
		MaxTicks: n,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := make([][2]float64, 0, n)
	for {
		it, err := sim.Next(context.Background())
		if err != nil {
			break // EOF at MaxTicks, or the machine crashed
		}
		tr = append(tr, it.Pairs...)
	}
	if len(tr) < n/2 {
		t.Fatalf("memsim trace too short: %d samples", len(tr))
	}
	return tr
}

// oracleRecords feeds tr through a per-sample detector set with
// AddTraced and returns one flight record per sample, annotated the way
// the recorder defines it, plus the set's final state.
func oracleRecords(t *testing.T, kinds []string, cfg detect.Config, tr [][2]float64) ([]trace.Record, []byte) {
	t.Helper()
	set, err := detect.New(kinds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]trace.Record, len(tr))
	for i, p := range tr {
		jumps := 0
		for _, ev := range set.AddTraced(p[0], p[1], nil) {
			if ev.Kind == detect.EventJump {
				jumps++
			}
		}
		sf, ss := set.LastStats()
		recs[i] = trace.Record{
			Seq: uint64(set.SamplesSeen()), Free: p[0], Swap: p[1],
			ScoreFree: sf, ScoreSwap: ss, Phase: set.Phase().String(), Jumps: jumps,
		}
	}
	blob, err := set.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	return recs, blob
}

// diffRecords reports the first field-level difference between two
// record runs, ignoring Wall (commit time is not reproducible).
func diffRecords(got, want []trace.Record) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d records, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		g.Wall, w.Wall = 0, 0
		if g != w {
			return fmt.Sprintf("record %d:\n got %+v\nwant %+v", i, g, w)
		}
	}
	return ""
}

// recorderTestDetect scales the entropy and adaptive detectors down to
// the test monitor's size, so all three detectors fire on a short trace.
func recorderTestDetect() detect.Config {
	return detect.Config{
		Entropy: detect.EntropyConfig{
			Window: 32, Stride: 4, MaxScale: 2, M: 2, RFraction: 0.3,
			BaselineEvals: 8, K: 3, Refractory: 4,
		},
		Adaptive: detect.AdaptiveConfig{
			Monitor: testMonitorConfig(), ShiftLambda: 0.2, ShiftK: 6,
			ShiftWarmup: 32, Refractory: 32,
		},
	}
}

// columnBatch builds a pooled columnar batch for id from pairs.
func columnBatch(id string, pairs [][2]float64) *transport.ColumnarBatch {
	cb := transport.AcquireColumnarBatch()
	cb.Source = id
	for _, p := range pairs {
		cb.Free = append(cb.Free, p[0])
		cb.Swap = append(cb.Swap, p[1])
	}
	return cb
}

// TestRecorderColumnarParity is the flight recorder's oracle gate: a
// recorded source runs the column kernels, and after every frame its
// recorder must hold exactly the records the per-sample AddTraced loop
// would have produced — every field but Wall — with detector state
// byte-identical, for frame sizes around the recorder depth and for a
// single- and a three-detector suite. The memsim leak trace fires jumps
// of every detector on both counters, some on the same sample, and
// climbs every phase inside recorded tails.
func TestRecorderColumnarParity(t *testing.T) {
	tr := leakTrace(t, 3, 9, 3000)
	// The last two suites put entropy and adaptive in the lead, so the
	// score columns come from their kernels and the detectors behind
	// them must leave the scores alone.
	suites := [][]string{
		{detect.KindHolder},
		{detect.KindHolder, detect.KindEntropy, detect.KindAdaptive},
		{detect.KindEntropy, detect.KindAdaptive, detect.KindHolder},
		{detect.KindAdaptive, detect.KindEntropy},
	}
	for _, kinds := range suites {
		cfg := Config{Shards: 1, Monitor: testMonitorConfig(), Detectors: kinds, Detect: recorderTestDetect()}
		oracle, oracleState := oracleRecords(t, kinds, cfg.DetectorConfig(), tr)
		jumps, phases := 0, map[string]bool{}
		for _, depth := range []int{1, 64, 300} {
			for _, size := range []int{1, 63, 64, 65, 256, 1000} {
				name := fmt.Sprintf("%s/depth=%d/frame=%d", strings.Join(kinds, ","), depth, size)
				t.Run(name, func(t *testing.T) {
					cfg := cfg
					cfg.FlightRecorderDepth = depth
					reg, err := NewRegistry(cfg)
					if err != nil {
						t.Fatal(err)
					}
					defer reg.Close()
					for off := 0; off < len(tr); off += size {
						end := min(off+size, len(tr))
						if err := reg.IngestColumns(columnBatch("m", tr[off:end])); err != nil {
							t.Fatal(err)
						}
						if err := reg.Drain(); err != nil {
							t.Fatal(err)
						}
						got, err := reg.FlightRecords("m")
						if err != nil {
							t.Fatal(err)
						}
						want := oracle[max(0, end-depth):end]
						if d := diffRecords(got, want); d != "" {
							t.Fatalf("after frame ending at %d: %s", end, d)
						}
						for _, rec := range want[max(0, len(want)-(end-off)):] {
							jumps += rec.Jumps
							phases[rec.Phase] = true
						}
					}
					state, err := reg.MonitorState("m")
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(state, oracleState) {
						t.Fatal("recorded columnar state differs from the per-sample oracle")
					}
				})
			}
		}
		if jumps < 10 || len(phases) != 3 {
			t.Fatalf("%v: recorded tails saw %d jumps and phases %v: the parity claim is vacuous", kinds, jumps, phases)
		}
	}
}

// spanStages returns the sorted stage names of every span tr retains.
func spanStages(tr *trace.Tracer) []string {
	seen := map[string]bool{}
	for _, sp := range tr.Spans() {
		seen[sp.Stage.String()] = true
	}
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// TestTracedColumnsSpanParity: a traced, recorded source fed columnar
// frames emits the same stage span names as one fed sample by sample
// (the per-sample kernel), stamps each frame's last record with its trace
// sequence and stage timings, and ends in the oracle's state.
func TestTracedColumnsSpanParity(t *testing.T) {
	tr := leakTrace(t, 3, 9, 1200)
	kinds := []string{detect.KindHolder, detect.KindEntropy, detect.KindAdaptive}
	cfg := Config{
		Shards: 1, Monitor: testMonitorConfig(), Detectors: kinds, Detect: recorderTestDetect(),
		TraceSampleEvery: 1, FlightRecorderDepth: 64,
	}
	oracle, oracleState := oracleRecords(t, kinds, cfg.DetectorConfig(), tr)

	rows, err := NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	for _, p := range tr {
		if err := rows.Ingest(Sample{Source: "m", Free: p[0], Swap: p[1]}); err != nil {
			t.Fatal(err)
		}
	}
	if err := rows.Drain(); err != nil {
		t.Fatal(err)
	}

	cols, err := NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cols.Close()
	const size = 100
	for off := 0; off < len(tr); off += size {
		end := min(off+size, len(tr))
		if err := cols.IngestColumns(columnBatch("m", tr[off:end])); err != nil {
			t.Fatal(err)
		}
		if err := cols.Drain(); err != nil {
			t.Fatal(err)
		}
		got, err := cols.FlightRecords("m")
		if err != nil {
			t.Fatal(err)
		}
		last := got[len(got)-1]
		if last.TraceSeq == 0 || last.StageNs[trace.StageDetect] == 0 || last.StageNs[trace.StageEst] == 0 {
			t.Fatalf("frame ending at %d: last record lacks its trace annotation: %+v", end, last)
		}
		// Timings are not reproducible; every other field is the oracle's.
		for i := range got {
			got[i].TraceSeq, got[i].StageNs = 0, [trace.NumStages]int64{}
		}
		if d := diffRecords(got, oracle[max(0, end-64):end]); d != "" {
			t.Fatalf("frame ending at %d: %s", end, d)
		}
	}
	want, got := spanStages(rows.Tracer()), spanStages(cols.Tracer())
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("columnar span stages %v, per-sample %v", got, want)
	}
	for _, reg := range []*Registry{rows, cols} {
		state, err := reg.MonitorState("m")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(state, oracleState) {
			t.Fatal("traced state differs from the per-sample oracle")
		}
	}
}
