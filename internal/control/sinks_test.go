package control

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"agingmf/internal/obs"
	"agingmf/internal/resilience"
)

func testAlert(i int) Alert {
	return Alert{Source: fmt.Sprintf("s-%d", i), Kind: KindJump, Sample: i}
}

func TestJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	ev := obs.NewEvents(syncWriter{&mu, &buf}, obs.LevelInfo)
	b := NewBus(4)
	sub := b.Subscribe("jsonl", 4)
	done := make(chan struct{})
	go func() {
		defer close(done)
		JSONLSink(sub, ev)
	}()
	b.Publish(Alert{Source: "web-01", Kind: KindPhaseChange, From: "healthy", To: "aging-onset"})
	b.Publish(Alert{Source: "web-01", Kind: KindJump, Detector: "entropy", Counter: "free-memory", Sample: 97})
	b.Close()
	<-done

	mu.Lock()
	out := buf.String()
	mu.Unlock()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("sink wrote %d lines, want 2:\n%s", len(lines), out)
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("sink output %q is not JSONL: %v", lines[0], err)
	}
	if rec["event"] != "alert" || rec["source"] != "web-01" || rec["alert"] != KindPhaseChange {
		t.Errorf("sink record = %v", rec)
	}
	if err := json.Unmarshal([]byte(lines[1]), &rec); err != nil {
		t.Fatalf("sink output %q is not JSONL: %v", lines[1], err)
	}
	if rec["alert"] != KindJump || rec["detector"] != "entropy" {
		t.Errorf("jump record missing detector label: %v", rec)
	}
}

// syncWriter serializes writes between the sink goroutine and the test.
type syncWriter struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

func (s syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

func TestWebhookSinkRetriesTransient(t *testing.T) {
	var calls atomic.Int32
	var got atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			http.Error(w, "boom", http.StatusInternalServerError) // transient
			return
		}
		var a Alert
		if err := json.NewDecoder(r.Body).Decode(&a); err != nil {
			t.Errorf("webhook body: %v", err)
		}
		got.Store(a)
	}))
	defer ts.Close()

	b := NewBus(4)
	sub := b.Subscribe("webhook", 4)
	done := make(chan struct{})
	go func() {
		defer close(done)
		WebhookSink(context.Background(), sub, WebhookConfig{
			URL:   ts.URL,
			Retry: resilience.RetryConfig{MaxAttempts: 3, BaseDelay: time.Millisecond},
		}, nil)
	}()
	want := Alert{Source: "db-7", Kind: KindJump, Detector: "holder", Counter: "free-memory", Sample: 41}
	b.Publish(want)
	b.Close()
	<-done

	if n := calls.Load(); n != 2 {
		t.Errorf("webhook called %d times, want 2 (5xx then success)", n)
	}
	if a, _ := got.Load().(Alert); a != want {
		t.Errorf("webhook received %+v, want %+v", a, want)
	}
}

func TestWebhookSinkPermanentFailureIsNotRetried(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "no", http.StatusBadRequest)
	}))
	defer ts.Close()

	var buf bytes.Buffer
	var mu sync.Mutex
	ev := obs.NewEvents(syncWriter{&mu, &buf}, obs.LevelInfo)
	b := NewBus(4)
	sub := b.Subscribe("webhook", 4)
	done := make(chan struct{})
	go func() {
		defer close(done)
		WebhookSink(context.Background(), sub, WebhookConfig{
			URL:   ts.URL,
			Retry: resilience.RetryConfig{MaxAttempts: 5, BaseDelay: time.Millisecond},
		}, ev)
	}()
	b.Publish(testAlert(1))
	b.Close()
	<-done

	if n := calls.Load(); n != 1 {
		t.Errorf("webhook called %d times for a 400, want 1", n)
	}
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !strings.Contains(out, "alert_webhook_failed") {
		t.Errorf("delivery failure not evented: %q", out)
	}
}

func TestWebhookSinkTimeoutBoundsAttempt(t *testing.T) {
	// A black-holed endpoint: accepts the connection, never responds.
	block := make(chan struct{})
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		<-block
	}))
	defer func() { close(block); ts.Close() }()

	var buf bytes.Buffer
	var mu sync.Mutex
	ev := obs.NewEvents(syncWriter{&mu, &buf}, obs.LevelInfo)
	b := NewBus(4)
	sub := b.Subscribe("webhook", 4)
	done := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(done)
		WebhookSink(context.Background(), sub, WebhookConfig{
			URL:     ts.URL,
			Timeout: 25 * time.Millisecond,
			Retry:   resilience.RetryConfig{MaxAttempts: 2, BaseDelay: time.Millisecond},
		}, ev)
	}()
	b.Publish(testAlert(7))
	b.Close()

	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("webhook sink wedged on a never-responding endpoint")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("delivery took %v; the per-attempt timeout did not bound it", elapsed)
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("webhook attempted %d times, want 2 (timeout is per attempt)", n)
	}
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !strings.Contains(out, "alert_webhook_failed") {
		t.Errorf("timed-out delivery not evented: %q", out)
	}
}
