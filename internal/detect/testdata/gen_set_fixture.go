//go:build ignore

// gen_set_fixture writes set_history_v1.gob, the committed three-detector
// MonitorSet snapshot whose Hölder monitors carry full raw, Hölder and
// volatility histories (HistoryLimit 0). It was run ONCE against the last
// implementation that persisted those histories; current monitors persist
// only their stage states and drop legacy histories on load, and the
// golden test in set_golden_test.go pins that a history-full blob still
// restores and continues byte-identically. The committed .gob file is the
// contract and must NOT be regenerated: a current binary would write a
// history-free blob and the test would no longer cover the legacy path.
//
// Usage (from the repository root, historical):
//
//	go run ./internal/detect/testdata/gen_set_fixture.go
//
// fixtureTrace and fixtureConfig are duplicated in the golden tests; the
// copies must stay identical.
package main

import (
	"fmt"
	"os"

	"agingmf/internal/aging"
	"agingmf/internal/detect"
)

// fixtureTrace is a tiny self-contained PRNG trace: smooth ramp blocks
// alternating with noisy blocks whose amplitude steps up at n/2, so the
// Hölder volatility jumps mid-trace.
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

// setFixtureConfig is the small three-detector configuration: the golden
// monitor settings for holder and adaptive, and an entropy detector whose
// baseline calibrates inside the prefix.
func setFixtureConfig() detect.Config {
	mon := aging.Config{
		MinRadius:        2,
		MaxRadius:        8,
		VolatilityWindow: 32,
		Detector:         aging.DetectShewhart,
		ShewhartK:        3,
		DetectorWarmup:   64,
		CUSUMDrift:       0.5,
		CUSUMThreshold:   20,
		PHDelta:          0.5,
		PHLambda:         50,
		EWMALambda:       0.05,
		EWMAK:            6,
		Refractory:       32,
	}
	ent := detect.DefaultEntropyConfig()
	ent.BaselineEvals = 8
	return detect.Config{
		Monitor: mon,
		Entropy: ent,
		Adaptive: detect.AdaptiveConfig{
			Monitor:     mon,
			ShiftLambda: 0.05,
			ShiftK:      8,
			ShiftWarmup: 32,
			Refractory:  64,
		},
	}
}

const (
	fixtureLen   = 800
	fixtureSplit = 500
)

func main() {
	set, err := detect.New([]string{detect.KindHolder, detect.KindEntropy, detect.KindAdaptive}, setFixtureConfig())
	check(err)
	free := fixtureTrace(61, fixtureLen)
	swap := fixtureTrace(62, fixtureLen)
	for i := 0; i < fixtureSplit; i++ {
		set.Add(free[i], swap[i])
	}
	blob, err := set.SaveState()
	check(err)
	check(os.WriteFile("internal/detect/testdata/set_history_v1.gob", blob, 0o644))
	fmt.Printf("set_history_v1.gob: %d samples, phase %v, %d jumps, %d bytes\n",
		set.SamplesSeen(), set.Phase(), set.Jumps(), len(blob))
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
