package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"agingmf/internal/aging"
	"agingmf/internal/control"
	"agingmf/internal/detect"
	"agingmf/internal/runtime"
)

// The closed loop end-to-end: a run long enough to age past onset, with
// a phase-triggered policy, must reboot the simulated machine at least
// once and say so — and must never reach a crash it would have hit
// policy-off (TestRunToCrashPrintsEvents crashes these exact settings).
func TestRunSimClosedLoopRejuvenation(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-seed", "1", "-max-ticks", "20000",
		"-rejuv-policy", "phase:aging-onset:800"}, nil, &buf)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "REJUVENATE") {
		t.Errorf("no policy restart in output:\n%s", out)
	}
	if !strings.Contains(out, "rejuvenations:") {
		t.Errorf("no rejuvenation summary in output:\n%s", out)
	}
	if strings.Contains(out, "CRASH") {
		t.Errorf("machine crashed despite proactive rejuvenation:\n%s", out)
	}
}

func TestRunBadRejuvPolicy(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-max-ticks", "10", "-rejuv-policy", "phase:bogus"}, nil, &buf); err == nil {
		t.Error("bad -rejuv-policy should fail")
	}
}

// TestJumpAlertMatchesDetectTranslation: a jump agingmon publishes must
// reach GET /api/alerts exactly as control.FromDetectEvent renders the
// holder detector's event for the same jump, the translation agingd's
// alerts take.
func TestJumpAlertMatchesDetectTranslation(t *testing.T) {
	tel, err := runtime.NewTelemetry("127.0.0.1:0", false, "")
	if err != nil {
		t.Fatal(err)
	}
	defer tel.Close()
	cp, err := newControlPlane(options{}, tel, "stream")
	if err != nil {
		t.Fatal(err)
	}
	out := &syncBuffer{}
	if err := tel.Serve(func() error { return nil }, out); err != nil {
		t.Fatal(err)
	}
	m := metricsURLPattern.FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("bound metrics address not printed: %q", out.String())
	}
	dj := aging.DualJump{
		Counter: aging.CounterUsedSwap,
		Jump:    aging.Jump{SampleIndex: 4242, Volatility: 0.375, Score: 6.25},
	}
	cp.jump(dj)

	var got struct {
		Alerts []control.Alert `json:"alerts"`
	}
	if err := json.Unmarshal([]byte(scrape(t, m[1]+"/api/alerts")), &got); err != nil {
		t.Fatalf("/api/alerts not JSON: %v", err)
	}
	if len(got.Alerts) != 1 {
		t.Fatalf("/api/alerts holds %d alerts, want 1: %+v", len(got.Alerts), got.Alerts)
	}
	want := control.FromDetectEvent("stream", detect.HolderEvent(dj))
	if !reflect.DeepEqual(got.Alerts[0], want) {
		t.Fatalf("jump alert %+v, want %+v", got.Alerts[0], want)
	}
}
