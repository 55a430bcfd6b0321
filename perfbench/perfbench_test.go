package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"agingmf/internal/detect"
	"agingmf/internal/ingest"
)

// tinyFleet is a fleet small enough to generate in milliseconds.
func tinyFleet(prefix int) *Workload {
	w := &Workload{
		Name: "tiny", Daemon: "agingd",
		Detectors: []string{detect.KindHolder}, Recorder: 64,
		Sources: 3, LagSamples: 64, Frame: 64, Conns: 2, LagRate: 1e5,
		machine: fleetMachine(300),
	}
	if prefix > 0 {
		w.Detectors = allKinds
		w.Prefix = prefix
		w.machine = fleetMachine(prefix + 300)
	}
	return w
}

func TestGenerateIsDeterministicPerSeed(t *testing.T) {
	for _, prefix := range []int{0, 200} {
		w := tinyFleet(prefix)
		a, err := generate(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		// The snapshot envelope is a gob-encoded map, whose byte order
		// follows map iteration; its decoded content must match.
		if prefix > 0 {
			sa, err := ingest.DecodeSnapshot(a.Prepared)
			if err != nil {
				t.Fatal(err)
			}
			sb, err := ingest.DecodeSnapshot(b.Prepared)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(sa, sb) || !reflect.DeepEqual(sa, a.PreparedStates) || len(sa) != w.Sources {
				t.Fatalf("seed 7 prepared different snapshots twice")
			}
			a.Prepared, b.Prepared = nil, nil
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("prefix %d: seed 7 generated different inputs twice", prefix)
		}
		wa, err := encodeWire(w, a)
		if err != nil {
			t.Fatal(err)
		}
		wb, err := encodeWire(w, b)
		if err != nil {
			t.Fatal(err)
		}
		da, _ := wa.replayStream()
		db, _ := wb.replayStream()
		if !bytes.Equal(da, db) || wa.total() != a.Total() {
			t.Fatalf("prefix %d: wire bytes differ, or carry %d of %d samples", prefix, wa.total(), a.Total())
		}
		if k := inputsKey(w); k != inputsKey(tinyFleet(prefix)) {
			t.Fatalf("prefix %d: the cache key of one workload differs between calls", prefix)
		}
		other := tinyFleet(prefix)
		other.machine = fleetMachine(prefix + 301)
		if inputsKey(w) == inputsKey(other) {
			t.Fatalf("prefix %d: a longer trace keeps the same cache key", prefix)
		}
		c, err := generate(w, 8)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(a.Free, c.Free) {
			t.Fatalf("prefix %d: seeds 7 and 8 generated the same traces", prefix)
		}
	}
}

func TestOracleCatchesCorruptState(t *testing.T) {
	w := tinyFleet(0)
	in, err := generate(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	expected, err := expectedStates(w, in)
	if err != nil {
		t.Fatal(err)
	}
	sent := in.Total()
	clean := accounting{accepted: uint64(sent)}
	if bad := failedSamples(in, expected, expected, sent, clean); bad != 0 {
		t.Fatalf("oracle against itself: %d failed samples, want 0", bad)
	}

	// One extra sample on source 1: a state a daemon that double-applied
	// a sample would save.
	set, err := detect.RestoreMonitorSet(expected[in.IDs[1]])
	if err != nil {
		t.Fatal(err)
	}
	set.Add(in.Free[1][0], in.Swap[1][0])
	corrupt, err := set.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	got := map[string][]byte{}
	for id, b := range expected {
		got[id] = b
	}
	got[in.IDs[1]] = corrupt
	if ids := mismatches(in, expected, got); !reflect.DeepEqual(ids, []string{in.IDs[1]}) {
		t.Fatalf("mismatches = %v, want [%s]", ids, in.IDs[1])
	}
	if bad := failedSamples(in, expected, got, sent, clean); bad != len(in.Free[1]) {
		t.Fatalf("failed samples = %d, want source 1's %d", bad, len(in.Free[1]))
	}

	// A missing source and an unreadable blob fail too.
	delete(got, in.IDs[1])
	got[in.IDs[2]] = []byte("not a state")
	if ids := mismatches(in, expected, got); len(ids) != 2 {
		t.Fatalf("mismatches = %v, want sources 1 and 2", ids)
	}

	// The daemon's own ledger counts: dropped samples fail even when the
	// states match.
	if bad := failedSamples(in, expected, expected, sent, accounting{accepted: uint64(sent - 5), rejected: 5}); bad != 5 {
		t.Fatalf("failed samples with 5 dropped = %d, want 5", bad)
	}
}

func TestUnitLagsOnSyntheticShardTimeline(t *testing.T) {
	ms := time.Millisecond
	units := []lagUnit{
		{shard: 0, need: 10, sent: 0},
		{shard: 1, need: 5, sent: 1 * ms},
		{shard: 0, need: 20, sent: 2 * ms},
		// Due at 2.75 ms, behind a write that returned at 3 ms.
		{shard: 0, need: 30, sent: 3 * ms, held: ms / 4},
	}
	polls := []shardPoll{
		{at: ms / 2, counts: []uint64{10, 0}},
		{at: 3 * ms / 2, counts: []uint64{10, 0}},
		{at: 3 * ms, counts: []uint64{25, 5}},
		{at: 4 * ms, counts: []uint64{30, 5}},
	}
	lags, floors, err := unitLags(units, polls)
	if err != nil {
		t.Fatal(err)
	}
	// A lag runs to the first poll showing the unit committed, and counts
	// unit 3's wait behind the blocked write; a floor runs to the first
	// poll after the send.
	want := []time.Duration{ms / 2, 2 * ms, 1 * ms, 5 * ms / 4}
	if !reflect.DeepEqual(lags, want) {
		t.Fatalf("lags = %v, want %v", lags, want)
	}
	if want := []time.Duration{ms / 2, ms / 2, 1 * ms, 0}; !reflect.DeepEqual(floors, want) {
		t.Fatalf("floors = %v, want %v", floors, want)
	}
	if _, _, err := unitLags(append(units, lagUnit{shard: 1, need: 6, sent: 4 * ms}), polls); err == nil {
		t.Fatal("a unit never seen committed must be an error")
	}

	if q := tailQuantile(100); q != 0.9 {
		t.Fatalf("tailQuantile(100) = %v, want 0.9 (10 samples beyond)", q)
	}
	if q := tailQuantile(5000); q != 0.99 {
		t.Fatalf("tailQuantile(5000) = %v, want 0.99", q)
	}
	if p := quantileDur([]time.Duration{4, 1, 3, 2}, 0.5); p != 2 {
		t.Fatalf("median = %v, want 2 (nearest rank)", p)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}

// runsOf builds ten runs of one workload whose latency_ms and
// throughput_sps are base scaled by factor, with ±1% jitter.
func runsOf(factor float64) map[string]map[string]summary {
	var runs []repeatRun
	for i := 0; i < 10; i++ {
		j := 1 + 0.002*float64(i-5)
		runs = append(runs, repeatRun{Workload: "w", Seed: int64(i), Result: result{Metrics: map[string]metric{
			"latency_ms":     {Value: 2 * factor * j, Unit: "ms"},
			"throughput_sps": {Value: 1e6 / factor * j, Unit: "samples/s"},
		}}})
	}
	return summarize(runs)
}

func testSpec() benchSpec {
	return benchSpec{EndToEnd: []metricBound{
		{Name: "latency_ms", Better: "lower", Bound: 0.1},
		{Name: "throughput_sps", Better: "higher", Bound: 0.1},
	}}
}

func TestCompareFlagsRegressionAndPassesIdentical(t *testing.T) {
	var out strings.Builder
	n, err := compare(&out, testSpec(), runsOf(1), runsOf(1))
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 || strings.Contains(out.String(), "REGRESSION") || strings.Count(out.String(), "unchanged") != 2 {
		t.Fatalf("identical runs: %d regressions\n%s", n, out.String())
	}

	out.Reset()
	n, err = compare(&out, testSpec(), runsOf(1), runsOf(1.2))
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || strings.Count(out.String(), "REGRESSION") != 2 {
		t.Fatalf("20%% slower: %d regressions, want both metrics\n%s", n, out.String())
	}

	out.Reset()
	if n, _ = compare(&out, testSpec(), runsOf(1.2), runsOf(1)); n != 0 || strings.Count(out.String(), "better") != 2 {
		t.Fatalf("20%% faster: %d regressions\n%s", n, out.String())
	}
}

func TestCompareReportsNoisyMetricUnresolved(t *testing.T) {
	noisy := func(shift float64) map[string]map[string]summary {
		var runs []repeatRun
		for i, v := range []float64{1, 3, 1.5, 2.5, 2, 1.2, 2.8, 1.8, 2.2, 2} {
			runs = append(runs, repeatRun{Workload: "w", Result: result{Metrics: map[string]metric{
				"latency_ms": {Value: v * shift, Unit: "ms"},
			}}, Seed: int64(i)})
		}
		return summarize(runs)
	}
	var out strings.Builder
	n, err := compare(&out, testSpec(), noisy(1), noisy(1.2))
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 || !strings.Contains(out.String(), "unresolved") {
		t.Fatalf("a 20%% shift under a 50%% spread must be unresolved, not a regression or unchanged\n%s", out.String())
	}
}

// benchNames returns the metric names BENCHMARK.json declares in list
// ("end_to_end" or "per_layer"), sorted.
func benchNames(t *testing.T, list string) []string {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name string `json:"name"`
	}
	var doc struct {
		EndToEnd []named `json:"end_to_end"`
		PerLayer []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	metrics := doc.EndToEnd
	if list == "per_layer" {
		metrics = doc.PerLayer
	}
	var names []string
	for _, m := range metrics {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	return names
}

func TestEndToEndMetricsMatchBenchmarkJSON(t *testing.T) {
	lc := lifecycle{
		setups: []time.Duration{time.Millisecond}, throughput: 1, cpuNs: 1,
		lags: []time.Duration{time.Millisecond}, rssKiB: 1, shutdown: time.Millisecond,
	}
	if got, want := sortedKeys(e2eResult([]lifecycle{lc}).Metrics), benchNames(t, "end_to_end"); !reflect.DeepEqual(got, want) {
		t.Fatalf("--trace 0 prints %v, BENCHMARK.json declares %v", got, want)
	}
}

// TestReplayMetricsMatchBenchmarkJSON replays tiny inputs of every daemon
// and wire format in process: the names must be the declared per-layer
// list, and the counts must repeat exactly.
func TestReplayMetricsMatchBenchmarkJSON(t *testing.T) {
	text := tinyFleet(0)
	text.Frame = 0
	mon := tinyFleet(0)
	mon.Daemon, mon.Sources, mon.Conns = "agingmon", 1, 1
	want := benchNames(t, "per_layer")
	for _, w := range []*Workload{tinyFleet(0), text, tinyFleet(200), mon} {
		var counts [2][3]float64
		for k := range counts {
			in, err := generate(w, 5)
			if err != nil {
				t.Fatal(err)
			}
			wr, err := encodeWire(w, in)
			if err != nil {
				t.Fatal(err)
			}
			expected, err := expectedStates(w, in)
			if err != nil {
				t.Fatal(err)
			}
			e := &env{w: w, in: in, wire: wr, expected: expected, work: t.TempDir()}
			m, err := layerMetrics(context.Background(), e, 1000, nil, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := sortedKeys(m); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s frame %d: --trace 1 prints %v, BENCHMARK.json declares %v", w.Daemon, w.Frame, got, want)
			}
			counts[k] = [3]float64{m["detect.events"].Value, m["alerts.published"].Value, m["stream.gate.alarms"].Value}
		}
		if counts[0] != counts[1] {
			t.Fatalf("%s frame %d: replay counts differ between runs: %v", w.Daemon, w.Frame, counts)
		}
	}
}
