package aging

import (
	"bytes"
	"testing"
)

// A monitor keeps only the stage states the next sample needs, so its
// memory and its snapshots do not grow with the samples it has seen. The
// deprecated HistoryLimit field is accepted and changes nothing.

// TestBoundedMonitorMatchesUnboundedExactly: a config carrying a legacy
// HistoryLimit detects exactly what the default config detects, and the
// two monitors hold the same state.
func TestBoundedMonitorMatchesUnboundedExactly(t *testing.T) {
	xs := regimeChangeSignal(t, 20000, 77)
	plain, err := NewMonitor(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfgB := DefaultConfig()
	cfgB.HistoryLimit = 512
	bounded, err := NewMonitor(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range xs {
		ju, fu := plain.Add(v)
		jb, fb := bounded.Add(v)
		if fu != fb || ju != jb {
			t.Fatalf("divergence at sample %d: (%+v,%v) vs (%+v,%v)", plain.SamplesSeen(), ju, fu, jb, fb)
		}
	}
	if len(plain.Jumps()) == 0 {
		t.Fatal("signal produced no jumps; comparison is vacuous")
	}
	bounded.cfg.HistoryLimit = 0 // the only field that may differ
	if !bytes.Equal(saveBytes(t, plain), saveBytes(t, bounded)) {
		t.Fatal("HistoryLimit changed the monitor's state")
	}
}

// TestBoundedMonitorMemoryStaysBounded is the O(1)-state assertion: the
// snapshot after 30,000 samples is as long as the one after 3,000 but
// for the jumps fired in between, it carries no raw or volatility
// history and exactly one volatility window of Hölder values, and the
// estimator's pending oscillations stay within the radius bound.
func TestBoundedMonitorMemoryStaysBounded(t *testing.T) {
	cfg := DefaultConfig()
	mon, err := NewMonitor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	xs := regimeChangeSignal(t, 30000, 78)
	mon.AddColumns(xs[:3000])
	early := len(saveBytes(t, mon))
	jumps0 := len(mon.Jumps())
	mon.AddColumns(xs[3000:])
	blob := saveBytes(t, mon)
	var st monitorState
	if err := gobDecode(blob, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Raw) != 0 || len(st.Vols) != 0 {
		t.Errorf("snapshot carries history: raw %d, vols %d", len(st.Raw), len(st.Vols))
	}
	if len(st.Alphas) != cfg.VolatilityWindow {
		t.Errorf("snapshot alphas %d, want one window of %d", len(st.Alphas), cfg.VolatilityWindow)
	}
	// A jump costs a few dozen bytes; the counters grow by a varint byte.
	const perJump, slack = 48, 16
	if grew, allowed := len(blob)-early, perJump*(len(mon.Jumps())-jumps0)+slack; grew > allowed {
		t.Errorf("snapshot grew %d B from 3,000 to 30,000 samples (allowed %d for %d jumps)",
			grew, allowed, len(mon.Jumps())-jumps0)
	}
	for _, ts := range mon.est.State().Trackers {
		if len(ts.Osc) > 2*cfg.MaxRadius+2 {
			t.Errorf("tracker r=%d retained %d oscillations", ts.R, len(ts.Osc))
		}
	}
	if mon.SamplesSeen() != len(xs) {
		t.Errorf("SamplesSeen = %d, want %d", mon.SamplesSeen(), len(xs))
	}
}

// TestBoundedMonitorValidation: HistoryLimit is deprecated and ignored,
// so even a negative value is accepted.
func TestBoundedMonitorValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HistoryLimit = -1
	if _, err := NewMonitor(cfg); err != nil {
		t.Errorf("a deprecated HistoryLimit must be ignored, got %v", err)
	}
}
