package detect

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// columnarPairs is a three-regime trace that makes every detector kind
// fire: calm noise for the baselines, then a smooth leak-driven
// exhaustion ramp (the entropy detector's collapse signature), then high
// volatility (the Hölder jump signature).
func columnarPairs(seed int64, n int) [][2]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][2]float64, n)
	for i := range out {
		var free float64
		switch {
		case i < n/3:
			free = 100 + (rng.Float64() - 0.5)
		case i < 5*n/6:
			free = 100 - 0.05*float64(i-n/3) + 0.001*(rng.Float64()-0.5)
		default:
			free = 25 + 2*(rng.Float64()-0.5)
		}
		out[i] = [2]float64{free, 5 + 0.05*(rng.Float64()-0.5)}
	}
	return out
}

// columnarKindSets are the detector mixes the columnar parity tests run:
// the holder-only fast path, every per-kind kernel, and the full suite
// whose merged event stream must reproduce row order.
var columnarKindSets = [][]string{
	{KindHolder},
	{KindEntropy},
	{KindAdaptive},
	{KindHolder, KindEntropy, KindAdaptive},
}

// addColumnsChunked drives AddColumns over the pairs in fixed chunks.
func addColumnsChunked(s *MonitorSet, pairs [][2]float64, chunk int) []Event {
	var events []Event
	free := make([]float64, 0, chunk)
	swap := make([]float64, 0, chunk)
	for off := 0; off < len(pairs); off += chunk {
		end := off + chunk
		if end > len(pairs) {
			end = len(pairs)
		}
		free, swap = free[:0], swap[:0]
		for _, p := range pairs[off:end] {
			free = append(free, p[0])
			swap = append(swap, p[1])
		}
		events = append(events, s.AddColumns(free, swap)...)
	}
	return events
}

// addEach feeds pairs one at a time through Add: the per-sample oracle
// the column kernels are checked against.
func addEach(s *MonitorSet, pairs [][2]float64) []Event {
	var events []Event
	for _, p := range pairs {
		events = append(events, s.Add(p[0], p[1])...)
	}
	return events
}

// TestSetAddColumnsParity requires MonitorSet.AddColumns to reproduce
// the per-sample Add loop exactly — same events in the same order, same
// per-detector SaveState bytes — for every detector mix and chunking.
func TestSetAddColumnsParity(t *testing.T) {
	pairs := columnarPairs(1, 3000)
	for _, kinds := range columnarKindSets {
		ref, err := New(kinds, testConfig())
		if err != nil {
			t.Fatal(err)
		}
		want := addEach(ref, pairs)
		if len(want) == 0 {
			t.Fatalf("kinds=%v: reference fired no events; trace too tame", kinds)
		}
		refState, err := ref.SaveState()
		if err != nil {
			t.Fatal(err)
		}
		for _, chunk := range []int{1, 64, 333, len(pairs)} {
			set, err := New(kinds, testConfig())
			if err != nil {
				t.Fatal(err)
			}
			got := addColumnsChunked(set, pairs, chunk)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("kinds=%v chunk=%d: events diverged\ngot  %v\nwant %v", kinds, chunk, got, want)
			}
			gotState, err := set.SaveState()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotState, refState) {
				t.Fatalf("kinds=%v chunk=%d: SaveState diverged from per-sample Add", kinds, chunk)
			}
		}
	}
}

// TestSetAddColumnsMergesDetectorOrder pins the merge rule directly: two
// detectors firing inside one column must come back ordered by sample
// index, with configuration order breaking ties — exactly what the
// per-sample path emits.
func TestSetAddColumnsMergesDetectorOrder(t *testing.T) {
	pairs := agingPairs(5, 1600)
	ref, err := New([]string{KindHolder, KindAdaptive}, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := addEach(ref, pairs)
	set, err := New([]string{KindHolder, KindAdaptive}, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	got := addColumnsChunked(set, pairs, len(pairs))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("single-column merge diverged\ngot  %v\nwant %v", got, want)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Sample < got[i-1].Sample {
			t.Fatalf("merged events out of sample order at %d: %v", i, got)
		}
	}
}
