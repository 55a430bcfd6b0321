package control

import (
	"fmt"
	"strings"
	"testing"

	"agingmf/internal/obs"
)

func TestBusRing(t *testing.T) {
	b := NewBus(4)
	defer b.Close()
	if got := b.Recent(0); len(got) != 0 {
		t.Errorf("empty bus Recent(0) = %v", got)
	}
	for i := 0; i < 6; i++ {
		b.Publish(Alert{Source: fmt.Sprintf("s%d", i), Kind: KindJump})
	}
	if got := b.Total(); got != 6 {
		t.Fatalf("Total() = %d, want 6", got)
	}
	recent := b.Recent(0)
	if len(recent) != 4 {
		t.Fatalf("Recent(0) returned %d alerts, want 4 (ring size)", len(recent))
	}
	for i, a := range recent {
		if want := fmt.Sprintf("s%d", i+2); a.Source != want {
			t.Errorf("recent[%d].Source = %q, want %q", i, a.Source, want)
		}
	}
	if got := b.Recent(2); len(got) != 2 || got[0].Source != "s4" || got[1].Source != "s5" {
		t.Errorf("Recent(2) = %v, want the two newest, s4 then s5", got)
	}
}

func TestBusFanoutAndLabeledDrops(t *testing.T) {
	reg := obs.NewRegistry()
	fleet := reg.CounterVec("agingmf_alert_drops_total", "by sink", "sink")
	other := reg.CounterVec("agingmf_test_alert_drops_total", "by sink", "sink")
	b := NewBus(8, fleet, other)

	fast := b.Subscribe("fast", 16)
	slow := b.Subscribe("slow", 1)
	for i := 0; i < 5; i++ {
		b.Publish(Alert{Source: "m", Kind: KindJump, Sample: i})
	}
	// fast has room for all five, in publish order; slow's queue of one
	// keeps the first and drops the other four.
	if got := len(fast.C()); got != 5 {
		t.Errorf("fast queued %d alerts, want 5", got)
	}
	for i := 0; i < 5; i++ {
		if a := <-fast.C(); a.Sample != i {
			t.Errorf("fast got sample %d, want %d", a.Sample, i)
		}
	}
	if got := slow.Dropped(); got != 4 {
		t.Errorf("slow.Dropped() = %d, want 4", got)
	}
	// The drops are labeled by sink on every metric family the bus was
	// built with.
	for _, vec := range []*obs.CounterVec{fleet, other} {
		if got := vec.With("slow").Value(); got != 4 {
			t.Errorf("drop counter {sink=slow} = %d, want 4", got)
		}
		if got := vec.With("fast").Value(); got != 0 {
			t.Errorf("drop counter {sink=fast} = %d, want 0", got)
		}
	}
	var text strings.Builder
	if err := reg.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), `agingmf_alert_drops_total{sink="slow"} 4`) {
		t.Errorf("exposition lacks labeled drop sample:\n%s", text.String())
	}

	fast.Cancel()
	fast.Cancel() // idempotent
	if _, ok := <-fast.C(); ok {
		t.Error("cancelled subscription channel still open")
	}
	b.Publish(Alert{Source: "m", Kind: KindJump})
	if got := slow.Dropped(); got != 5 {
		t.Errorf("slow.Dropped() after cancel of fast = %d, want 5", got)
	}

	b.Close()
	b.Close() // idempotent
	// Drain the one queued alert first; the channel must then close.
	if a, ok := <-slow.C(); !ok || a.Sample != 0 {
		t.Fatalf("slow's queued alert on Close = %+v, ok=%v; want sample 0", a, ok)
	}
	if _, ok := <-slow.C(); ok {
		t.Error("bus close left subscriber channel open")
	}
	b.Publish(Alert{Source: "m", Kind: KindJump}) // no-op after Close
	if got := b.Total(); got != 6 {
		t.Errorf("Total() after post-close publish = %d, want 6", got)
	}
	if sub := b.Subscribe("late", 1); sub == nil || sub.C() == nil {
		t.Error("post-close Subscribe returned no channel")
	} else if _, ok := <-sub.C(); ok {
		t.Errorf("post-close subscription not closed")
	}
}

func BenchmarkAlertBusPublish(b *testing.B) {
	reg := obs.NewRegistry()
	drops := reg.CounterVec("agingmf_alert_drops_total", "by sink", "sink")
	bus := NewBus(256, drops)
	// One draining subscriber and one saturated: the benchmark covers
	// both the delivery and the drop-count path, which is what the
	// ingest hot loop pays per alert.
	sat := bus.Subscribe("saturated", 1)
	defer sat.Cancel()
	live := bus.Subscribe("live", 1024)
	defer live.Cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range live.C() {
		}
	}()
	a := Alert{Source: "bench", Kind: KindJump, Detector: "holder", Sample: 1, Score: 3.2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bus.Publish(a)
	}
	b.StopTimer()
	bus.Close()
	<-done
}
