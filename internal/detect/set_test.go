package detect

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"agingmf/internal/aging"
)

// testMonitorConfig returns a scaled-down Hölder pipeline so jump
// detection happens within a few hundred samples (test scale).
func testMonitorConfig() aging.Config {
	cfg := aging.DefaultConfig()
	cfg.MaxRadius = 8
	cfg.VolatilityWindow = 32
	// Warmup must span several volatility windows or the Shewhart
	// baseline underestimates the variance and false-alarms on noise
	// (see aging.DefaultConfig).
	cfg.DetectorWarmup = 128
	cfg.ShewhartK = 5
	cfg.Refractory = 32
	return cfg
}

// testEntropyConfig returns a scaled-down entropy detector (alarms
// possible after ~432 samples).
func testEntropyConfig() EntropyConfig {
	cfg := DefaultEntropyConfig()
	cfg.Refractory = 4
	return cfg
}

// testAdaptiveConfig returns a scaled-down adaptive detector.
func testAdaptiveConfig() AdaptiveConfig {
	return AdaptiveConfig{
		Monitor:     testMonitorConfig(),
		ShiftLambda: 0.2,
		ShiftK:      10,
		ShiftWarmup: 64,
		Refractory:  128,
	}
}

func testConfig() Config {
	return Config{
		Monitor:  testMonitorConfig(),
		Entropy:  testEntropyConfig(),
		Adaptive: testAdaptiveConfig(),
	}
}

// noisePairs returns n stationary sample pairs around the given levels.
func noisePairs(seed int64, n int, freeLevel, swapLevel, amp float64) [][2]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][2]float64, n)
	for i := range out {
		out[i] = [2]float64{
			freeLevel + amp*(rng.Float64()-0.5),
			swapLevel + amp*(rng.Float64()-0.5),
		}
	}
	return out
}

// agingPairs returns a trace whose free-memory stream turns from calm to
// highly volatile at n/2 — the shape the Hölder detector alarms on.
func agingPairs(seed int64, n int) [][2]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][2]float64, n)
	for i := range out {
		amp := 0.05
		if i >= n/2 {
			amp = 2.0
		}
		out[i] = [2]float64{
			100 + amp*(rng.Float64()-0.5),
			5 + 0.05*(rng.Float64()-0.5),
		}
	}
	return out
}

func TestParseKinds(t *testing.T) {
	cases := []struct {
		spec string
		want []string
		ok   bool
	}{
		{"", []string{"holder"}, true},
		{"holder", []string{"holder"}, true},
		{"holder,entropy,adaptive", []string{"holder", "entropy", "adaptive"}, true},
		{" entropy , holder ", []string{"entropy", "holder"}, true},
		{"holder,holder", nil, false},
		{"holder,,entropy", nil, false},
		{"fourier", nil, false},
	}
	for _, c := range cases {
		got, err := ParseKinds(c.spec)
		if c.ok != (err == nil) {
			t.Errorf("ParseKinds(%q) error = %v, want ok=%v", c.spec, err, c.ok)
			continue
		}
		if c.ok && !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseKinds(%q) = %v, want %v", c.spec, got, c.want)
		}
	}
}

func TestNewRejectsBadKinds(t *testing.T) {
	if _, err := New([]string{"holder", "holder"}, testConfig()); err == nil {
		t.Error("duplicate kind accepted")
	}
	if _, err := New([]string{"fourier"}, testConfig()); err == nil {
		t.Error("unknown kind accepted")
	}
}

// TestHolderSetParity proves a holder-only MonitorSet is byte-for-byte
// the DualMonitor it wraps: same events, same phase, same state bytes.
func TestHolderSetParity(t *testing.T) {
	set, err := New([]string{KindHolder}, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := aging.NewDualMonitor(testMonitorConfig())
	if err != nil {
		t.Fatal(err)
	}
	var setJumps, refJumps int
	for _, p := range agingPairs(11, 1200) {
		events := set.Add(p[0], p[1])
		fired := ref.Add(p[0], p[1])
		if len(events) != len(fired) {
			t.Fatalf("set fired %d events, dual fired %d", len(events), len(fired))
		}
		for i, ev := range events {
			if ev.Detector != KindHolder || ev.Kind != EventJump {
				t.Fatalf("event %+v: want holder jump", ev)
			}
			if ev.Counter != fired[i].Counter || ev.Sample != fired[i].Jump.SampleIndex {
				t.Fatalf("event %+v misattributed vs %+v", ev, fired[i])
			}
		}
		setJumps += len(events)
		refJumps += len(fired)
	}
	if setJumps == 0 {
		t.Fatal("fixture trace fired no jumps; the parity claim is vacuous")
	}
	if set.Phase() != ref.Phase() {
		t.Fatalf("set phase %v, dual phase %v", set.Phase(), ref.Phase())
	}
	_, states, err := DecodeStates(mustSave(t, set))
	if err != nil {
		t.Fatal(err)
	}
	refBlob, err := ref.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(states[0], refBlob) {
		t.Fatal("holder state diverged from the wrapped DualMonitor")
	}
}

// TestEventLabels runs the full suite and checks every event is
// attributed to its emitting detector — the alert-dedup contract: two
// detectors firing on one tick yield two labeled events, never one
// ambiguous one.
func TestEventLabels(t *testing.T) {
	set, err := New([]string{KindHolder, KindEntropy, KindAdaptive}, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	perDetector := map[string]int{}
	for _, p := range agingPairs(11, 1200) {
		for _, ev := range set.Add(p[0], p[1]) {
			if ev.Detector == "" {
				t.Fatalf("unlabeled event %+v", ev)
			}
			if set.Lookup(ev.Detector) == nil {
				t.Fatalf("event from unknown detector %q", ev.Detector)
			}
			perDetector[ev.Detector]++
		}
	}
	if len(perDetector) < 2 {
		t.Fatalf("want events from >= 2 detectors on the aging fixture, got %v", perDetector)
	}
	for i := 0; i < set.Len(); i++ {
		d := set.Detector(i)
		want := d.Jumps() + d.Recalibrations()
		if got := perDetector[d.Kind()]; got != want {
			t.Errorf("%s: %d labeled events, want %d (jumps+recals)", d.Kind(), got, want)
		}
	}
}

// TestSetRoundTrip saves a mid-stream 3-detector set, restores it, and
// proves the restored set continues byte-for-byte with the original.
func TestSetRoundTrip(t *testing.T) {
	set, err := New([]string{KindHolder, KindEntropy, KindAdaptive}, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	trace := agingPairs(23, 1400)
	cut := 700
	addEach(set, trace[:cut])
	blob := mustSave(t, set)
	restored, err := RestoreMonitorSet(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(restored.Kinds(), set.Kinds()) {
		t.Fatalf("restored kinds %v, want %v", restored.Kinds(), set.Kinds())
	}
	if restored.SamplesSeen() != cut {
		t.Fatalf("restored SamplesSeen %d, want %d", restored.SamplesSeen(), cut)
	}
	for i, p := range trace[cut:] {
		a := set.Add(p[0], p[1])
		b := restored.Add(p[0], p[1])
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("sample %d: original fired %+v, restored fired %+v", cut+i, a, b)
		}
	}
	if !bytes.Equal(mustSave(t, set), mustSave(t, restored)) {
		t.Fatal("states diverged after identical continuation")
	}
}

// TestRestoreLegacyDualBlob pins the migration contract: a pre-MonitorSet
// aging.DualMonitor snapshot restores into a set containing only the
// holder detector, and the restored holder continues byte-for-byte with
// the dual monitor it came from.
func TestRestoreLegacyDualBlob(t *testing.T) {
	ref, err := aging.NewDualMonitor(testMonitorConfig())
	if err != nil {
		t.Fatal(err)
	}
	trace := agingPairs(31, 1400)
	cut := 650
	for _, p := range trace[:cut] {
		ref.Add(p[0], p[1])
	}
	legacy, err := ref.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	set, err := RestoreMonitorSet(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(set.Kinds(), []string{KindHolder}) {
		t.Fatalf("legacy blob restored into %v, want [holder]", set.Kinds())
	}
	if set.SamplesSeen() != cut {
		t.Fatalf("restored SamplesSeen %d, want %d", set.SamplesSeen(), cut)
	}
	addEach(set, trace[cut:])
	for _, p := range trace[cut:] {
		ref.Add(p[0], p[1])
	}
	_, states, err := DecodeStates(mustSave(t, set))
	if err != nil {
		t.Fatal(err)
	}
	refBlob, err := ref.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(states[0], refBlob) {
		t.Fatal("legacy-restored holder diverged from its source DualMonitor")
	}
}

func TestRestoreRejectsBadBlobs(t *testing.T) {
	set, err := New([]string{KindHolder, KindEntropy}, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	addEach(set, noisePairs(3, 200, 100, 5, 1))
	blob := mustSave(t, set)
	if _, err := RestoreMonitorSet(blob[:len(blob)/2]); err == nil {
		t.Error("truncated set blob accepted")
	}
	future, err := gobEncode(setState{Version: setStateVersion + 1, Kinds: []string{KindHolder}, States: [][]byte{{1}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreMonitorSet(future); err == nil {
		t.Error("future-versioned set blob accepted")
	}
	unknown, err := gobEncode(setState{Version: 1, Kinds: []string{"fourier"}, States: [][]byte{{1}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreMonitorSet(unknown); err == nil {
		t.Error("unknown detector kind in set blob accepted")
	}
	mismatch, err := gobEncode(setState{Version: 1, Kinds: []string{KindHolder}, States: nil})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreMonitorSet(mismatch); err == nil {
		t.Error("kind/state length mismatch accepted")
	}
	dup, err := gobEncode(setState{Version: 1, Kinds: []string{KindEntropy, KindEntropy}, States: [][]byte{{1}, {1}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreMonitorSet(dup); err == nil {
		t.Error("duplicate detector kind in set blob accepted")
	}
}

func mustSave(t *testing.T, s *MonitorSet) []byte {
	t.Helper()
	blob, err := s.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}
