package aging

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"agingmf/internal/obs"
	"agingmf/internal/series"
)

// jumpySignal is a calm then violently oscillating stream that reliably
// drives the default monitor through at least one volatility jump.
func jumpySignal(n int) []float64 {
	xs := make([]float64, n)
	level := 1e9
	for i := range xs {
		level -= 1e4
		xs[i] = level
		if i > n/2 {
			xs[i] += 5e7 * float64(i%7) * math.Sin(float64(i)/3)
		}
	}
	return xs
}

func TestMonitorInstrumented(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := DefaultConfig()
	mon, err := NewMonitor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mon.Instrument(reg)
	xs := jumpySignal(6000)
	jumps := 0
	for _, x := range xs {
		if _, ok := mon.Add(x); ok {
			jumps++
		}
	}
	if jumps == 0 {
		t.Fatal("signal produced no jumps; metrics assertions vacuous")
	}
	samples := reg.CounterVec(metricSamples, "Raw counter samples consumed by the aging monitor.", "counter").With("raw")
	if got := samples.Value(); got != uint64(len(xs)) {
		t.Errorf("samples counter = %d, want %d", got, len(xs))
	}
	jc := reg.CounterVec(metricJumps, "Detected Hölder-volatility jumps.", "counter", "detector").
		With("raw", cfg.Detector.String())
	if got := jc.Value(); got != uint64(jumps) {
		t.Errorf("jumps counter = %d, want %d", got, jumps)
	}
	lat := reg.HistogramVec(metricAddSeconds, "Latency of one Monitor.Add call.", addLatencyBuckets, "counter").With("raw")
	if got := lat.Count(); got != uint64(len(xs)) {
		t.Errorf("latency observations = %d, want %d", got, len(xs))
	}
	phase := reg.GaugeVec(metricPhase, "Aging phase: 1 healthy, 2 aging-onset, 3 crash-imminent.", "counter").With("raw")
	if got := phase.Value(); got != float64(mon.Phase()) {
		t.Errorf("phase gauge = %v, want %v", got, float64(mon.Phase()))
	}
	vol := reg.GaugeVec(metricVolatility, "Latest moving-window volatility of the Hölder trajectory.", "counter").With("raw")
	res, err := Analyze(series.FromValues("jumpy", xs), cfg)
	if err != nil {
		t.Fatal(err)
	}
	vols := res.Volatility.Values
	if got, want := vol.Value(), vols[len(vols)-1]; got != want {
		t.Errorf("volatility gauge = %v, want latest %v", got, want)
	}

	// A restored monitor holds no volatility history: its gauge reads the
	// window recomputed from the restored moments, the same value.
	restored, err := RestoreMonitor(saveBytes(t, mon))
	if err != nil {
		t.Fatal(err)
	}
	reg2 := obs.NewRegistry()
	restored.Instrument(reg2)
	restored.AddColumns(nil)
	vol2 := reg2.GaugeVec(metricVolatility, "Latest moving-window volatility of the Hölder trajectory.", "counter").With("raw")
	if got, want := vol2.Value(), vols[len(vols)-1]; got != want {
		t.Errorf("restored volatility gauge = %v, want %v", got, want)
	}
}

func TestMonitorInstrumentationDoesNotChangeDetection(t *testing.T) {
	plain, err := NewMonitor(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	inst, err := NewMonitor(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	inst.Instrument(obs.NewRegistry())
	for _, x := range jumpySignal(6000) {
		_, a := plain.Add(x)
		_, b := inst.Add(x)
		if a != b {
			t.Fatalf("instrumented monitor diverged at sample %d", plain.SamplesSeen())
		}
	}
	if plain.Phase() != inst.Phase() || len(plain.Jumps()) != len(inst.Jumps()) {
		t.Errorf("end state diverged: %v/%d vs %v/%d",
			plain.Phase(), len(plain.Jumps()), inst.Phase(), len(inst.Jumps()))
	}
}

func TestMonitorInstrumentNilDetaches(t *testing.T) {
	reg := obs.NewRegistry()
	mon, err := NewMonitor(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	mon.Instrument(reg)
	mon.Add(1)
	mon.Instrument(nil)
	mon.Add(2)
	samples := reg.CounterVec(metricSamples, "Raw counter samples consumed by the aging monitor.", "counter").With("raw")
	if got := samples.Value(); got != 1 {
		t.Errorf("samples after detach = %d, want 1", got)
	}
}

func TestDualMonitorInstrumented(t *testing.T) {
	reg := obs.NewRegistry()
	d, err := NewDualMonitor(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	d.Instrument(reg)
	xs := jumpySignal(6000)
	for i, x := range xs {
		d.Add(x, float64(i))
	}
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`agingmf_monitor_samples_total{counter="free-memory"} 6000`,
		`agingmf_monitor_samples_total{counter="used-swap"} 6000`,
		`agingmf_monitor_jumps_total{counter="free-memory",detector="shewhart"}`,
		`agingmf_monitor_phase{counter="free-memory"}`,
		`agingmf_monitor_volatility{counter="used-swap"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if len(d.Jumps()) == 0 {
		t.Error("dual monitor saw no jumps on the jumpy stream")
	}
}
