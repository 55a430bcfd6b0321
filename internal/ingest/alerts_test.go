package ingest

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"agingmf/internal/control"
	"agingmf/internal/obs"
)

func testAlert(i int) control.Alert {
	return control.Alert{Source: fmt.Sprintf("s-%d", i), Kind: control.KindJump, Sample: i}
}

// newAlertRegistry builds a registry whose alert bus keeps ring alerts
// and counts drops on the returned obs registry.
func newAlertRegistry(t *testing.T, ring int) (*Registry, *obs.Registry) {
	t.Helper()
	o := obs.NewRegistry()
	r, err := NewRegistry(Config{Shards: 1, AlertRing: ring, Obs: o, Monitor: testMonitorConfig()})
	if err != nil {
		t.Fatal(err)
	}
	return r, o
}

func TestAlertBusRing(t *testing.T) {
	r, o := newAlertRegistry(t, 4)
	defer r.Close()
	b := r.Alerts()
	if got := b.Recent(0); len(got) != 0 {
		t.Errorf("empty bus Recent = %v", got)
	}
	for i := 0; i < 6; i++ {
		r.publishAlert(testAlert(i))
	}
	if b.Total() != 6 {
		t.Errorf("total = %d", b.Total())
	}
	got := b.Recent(0)
	if len(got) != 4 {
		t.Fatalf("ring retained %d alerts, want 4 (Config.AlertRing)", len(got))
	}
	for i, a := range got { // oldest first: 2,3,4,5
		if a.Sample != i+2 {
			t.Errorf("recent[%d].Sample = %d, want %d", i, a.Sample, i+2)
		}
	}
	if got := b.Recent(2); len(got) != 2 || got[0].Sample != 4 || got[1].Sample != 5 {
		t.Errorf("Recent(2) = %v", got)
	}
	var text strings.Builder
	if err := o.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if want := metricAlerts + `{kind="jump"} 6`; !strings.Contains(text.String(), want) {
		t.Errorf("exposition lacks %q:\n%s", want, text.String())
	}
}

func TestAlertBusFanoutAndDrops(t *testing.T) {
	r, o := newAlertRegistry(t, 8)
	b := r.Alerts()
	fast := b.Subscribe("fast", 8)
	slow := b.Subscribe("slow", 1) // 1-slot queue, never drained: drops
	for i := 0; i < 5; i++ {
		r.publishAlert(testAlert(i))
	}
	for i := 0; i < 5; i++ {
		select {
		case a := <-fast.C():
			if a.Sample != i {
				t.Errorf("fast got %d, want %d", a.Sample, i)
			}
		case <-time.After(time.Second):
			t.Fatal("fast subscriber starved")
		}
	}
	if slow.Dropped() != 4 {
		t.Errorf("slow dropped = %d, want 4", slow.Dropped())
	}
	var text strings.Builder
	if err := o.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if want := metricAlertDropsFleet + `{sink="slow"} 4`; !strings.Contains(text.String(), want) {
		t.Errorf("exposition lacks %q:\n%s", want, text.String())
	}
	// Cancel is idempotent and closes the channel.
	fast.Cancel()
	fast.Cancel()
	if _, ok := <-fast.C(); ok {
		t.Error("cancelled subscription channel still open")
	}
	// Closing the registry closes its bus; both are idempotent.
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	b.Close()
	if a, ok := <-slow.C(); !ok || a.Sample != 0 {
		t.Errorf("slow subscriber's buffered alert = %+v, ok=%v", a, ok)
	}
	if _, ok := <-slow.C(); ok {
		t.Error("registry close left subscriber channel open")
	}
	r.publishAlert(testAlert(9)) // post-close publish is a silent no-op
	if b.Total() != 5 {
		t.Errorf("post-close publish counted: total = %d, want 5", b.Total())
	}
	if sub := b.Subscribe("late", 1); sub.C() == nil {
		t.Error("post-close Subscribe returned nil channel")
	} else if _, ok := <-sub.C(); ok {
		t.Error("post-close subscription not closed")
	}
}
