package detect

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"agingmf/internal/aging"
)

// Gob-compatibility golden tests for the MonitorSet snapshot contract:
// a holder-only set serializes as the RAW aging.DualMonitor blob, so
// pre-MonitorSet snapshots restore into MonitorSet{holder} and a
// restored set re-saves byte-identically. Two committed fixtures pin
// this in both directions:
//
//   - internal/aging/testdata/dual_v0.gob — written by the pre-
//     internal/stream (v0) DualMonitor, long before MonitorSet existed;
//   - testdata/dual_v1.gob — written by the DualMonitor current when
//     internal/detect was introduced (see testdata/gen_fixtures.go).
//
// Neither fixture may ever be regenerated.

// fixtureTrace duplicates the generator in testdata/gen_fixtures.go (and
// its internal/aging siblings); the copies must stay identical or the
// fixtures become unverifiable.
func fixtureTrace(seed uint64, n int) []float64 {
	x := seed
	rnd := func() float64 {
		x = x*6364136223846793005 + 1442695040888963407
		return float64(x>>11) / (1 << 53)
	}
	out := make([]float64, n)
	level := 0.0
	for i := range out {
		amp := 0.05
		if i >= n/2 {
			amp = 1.5
		}
		if (i/16)%2 == 0 {
			level += 0.01
			out[i] = level
		} else {
			out[i] = level + amp*(rnd()-0.5)
		}
	}
	return out
}

// fixtureConfig duplicates the config in testdata/gen_fixtures.go.
func fixtureConfig(kind aging.DetectorKind, historyLimit int) aging.Config {
	return aging.Config{
		MinRadius:        2,
		MaxRadius:        8,
		VolatilityWindow: 32,
		Detector:         kind,
		ShewhartK:        3,
		DetectorWarmup:   64,
		CUSUMDrift:       0.5,
		CUSUMThreshold:   20,
		PHDelta:          0.5,
		PHLambda:         50,
		EWMALambda:       0.05,
		EWMAK:            6,
		Refractory:       32,
		HistoryLimit:     historyLimit,
	}
}

const (
	fixtureLen   = 800
	fixtureSplit = 500
)

// goldenDualFixtures lists the committed DualMonitor blobs and the trace
// seeds they were generated from.
var goldenDualFixtures = []struct {
	name               string
	path               string
	freeSeed, swapSeed uint64
}{
	{"legacy_v0", filepath.Join("..", "aging", "testdata", "dual_v0.gob"), 21, 22},
	{"v1", filepath.Join("testdata", "dual_v1.gob"), 51, 52},
}

// TestGoldenDualRestoresIntoHolderSet restores each committed DualMonitor
// blob into a MonitorSet, demands a holder-only set that resumes exactly
// where the snapshot stopped, and verifies the round-trip: continuing the
// fixture trace past the split must match a fresh uninterrupted set
// event-for-event, and the continued set must re-serialize byte-identical
// to the fresh one — in the raw legacy DualMonitor format.
func TestGoldenDualRestoresIntoHolderSet(t *testing.T) {
	for _, fx := range goldenDualFixtures {
		t.Run(fx.name, func(t *testing.T) {
			blob, err := os.ReadFile(fx.path)
			if err != nil {
				t.Fatalf("read fixture: %v", err)
			}

			// The raw DualMonitor blob must route to the holder-only path.
			kinds, states, err := DecodeStates(blob)
			if err != nil {
				t.Fatalf("decode states: %v", err)
			}
			if len(kinds) != 1 || kinds[0] != KindHolder {
				t.Fatalf("decoded kinds = %v, want [%s]", kinds, KindHolder)
			}
			if !bytes.Equal(states[0], blob) {
				t.Fatal("holder state should be the legacy blob itself")
			}

			restored, err := RestoreMonitorSet(blob)
			if err != nil {
				t.Fatalf("restore into MonitorSet: %v", err)
			}
			if restored.Len() != 1 || restored.Detector(0).Kind() != KindHolder {
				t.Fatalf("restored kinds = %v, want holder only", restored.Kinds())
			}
			if restored.SamplesSeen() != fixtureSplit {
				t.Fatalf("restored SamplesSeen = %d, want %d", restored.SamplesSeen(), fixtureSplit)
			}
			// The fixtures were generated with jumps fired before the
			// split, so refractory and phase state is exercised.
			if restored.Phase() == aging.PhaseHealthy {
				t.Fatal("fixture should have jumped before the split")
			}

			fresh, err := New([]string{KindHolder}, Config{
				Monitor: fixtureConfig(aging.DetectShewhart, 0),
			})
			if err != nil {
				t.Fatal(err)
			}
			free := fixtureTrace(fx.freeSeed, fixtureLen)
			swap := fixtureTrace(fx.swapSeed, fixtureLen)
			for i := 0; i < fixtureLen; i++ {
				ff := fresh.Add(free[i], swap[i])
				if i < fixtureSplit {
					continue
				}
				fr := restored.Add(free[i], swap[i])
				if len(ff) != len(fr) {
					t.Fatalf("event divergence at pair %d: %d vs %d", i, len(ff), len(fr))
				}
				for k := range ff {
					if ff[k] != fr[k] {
						t.Fatalf("event payload divergence at pair %d: %+v vs %+v", i, ff[k], fr[k])
					}
				}
			}
			if fresh.Phase() != restored.Phase() {
				t.Fatalf("phase divergence: %v vs %v", fresh.Phase(), restored.Phase())
			}

			freshBlob, err := fresh.SaveState()
			if err != nil {
				t.Fatal(err)
			}
			restoredBlob, err := restored.SaveState()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(freshBlob, restoredBlob) {
				t.Fatal("continued golden state and uninterrupted state serialize differently")
			}
			// The holder-only set must keep emitting the raw legacy format:
			// a plain DualMonitor restore of the re-saved blob must succeed.
			if _, err := aging.RestoreDualMonitor(restoredBlob); err != nil {
				t.Fatalf("re-saved holder-only set is not a legacy DualMonitor blob: %v", err)
			}
		})
	}
}

// setFixtureConfig duplicates the config in testdata/gen_set_fixture.go.
func setFixtureConfig() Config {
	mon := fixtureConfig(aging.DetectShewhart, 0)
	ent := DefaultEntropyConfig()
	ent.BaselineEvals = 8
	return Config{
		Monitor: mon,
		Entropy: ent,
		Adaptive: AdaptiveConfig{
			Monitor:     mon,
			ShiftLambda: 0.05,
			ShiftK:      8,
			ShiftWarmup: 32,
			Refractory:  64,
		},
	}
}

// TestGoldenHistorySetRestores pins the legacy path of history-free
// monitors: testdata/set_history_v1.gob is a holder+entropy+adaptive set
// written when every Hölder monitor still kept full raw, Hölder and
// volatility histories (see testdata/gen_set_fixture.go). It must
// restore, drop those histories, continue the fixture trace through the
// column kernel event-for-event with a fresh set fed the whole trace one
// pair at a time, and then save the very same bytes.
func TestGoldenHistorySetRestores(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("testdata", "set_history_v1.gob"))
	if err != nil {
		t.Fatalf("read fixture: %v", err)
	}
	kinds := []string{KindHolder, KindEntropy, KindAdaptive}
	restored, err := RestoreMonitorSet(blob)
	if err != nil {
		t.Fatalf("restore history-full set: %v", err)
	}
	if got := restored.Kinds(); !reflect.DeepEqual(got, kinds) {
		t.Fatalf("restored kinds %v, want %v", got, kinds)
	}
	if restored.SamplesSeen() != fixtureSplit {
		t.Fatalf("restored SamplesSeen = %d, want %d", restored.SamplesSeen(), fixtureSplit)
	}
	if restored.Phase() == aging.PhaseHealthy {
		t.Fatal("fixture should have jumped before the split")
	}
	fresh, err := New(kinds, setFixtureConfig())
	if err != nil {
		t.Fatal(err)
	}
	free := fixtureTrace(61, fixtureLen)
	swap := fixtureTrace(62, fixtureLen)
	var want []Event
	for i := 0; i < fixtureLen; i++ {
		ev := fresh.Add(free[i], swap[i])
		if i >= fixtureSplit {
			want = append(want, ev...)
		}
	}
	if len(want) == 0 {
		t.Fatal("no events after the split; the continuation check is vacuous")
	}
	var got []Event
	for off := fixtureSplit; off < fixtureLen; off += 64 {
		end := min(off+64, fixtureLen)
		got = append(got, restored.AddColumns(free[off:end], swap[off:end])...)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("continued events %+v, want %+v", got, want)
	}
	freshBlob, err := fresh.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	restoredBlob, err := restored.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(freshBlob, restoredBlob) {
		t.Fatal("continued history-full state and uninterrupted state serialize differently")
	}
	if len(restoredBlob) >= len(blob)/2 {
		t.Fatalf("re-saved set is %d B against the history-full %d B: histories were kept", len(restoredBlob), len(blob))
	}
}
