package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer lets the test read run()'s output while run() is still
// writing it from another goroutine.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var metricsURLPattern = regexp.MustCompile(`metrics: (http://\S+)/metrics`)

// scrape fetches one page off the run's metrics server.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	return string(body)
}

// sampleValue extracts the value of an exposition line by exact series
// prefix ("name" or `name{label="v"}`).
func sampleValue(t *testing.T, exposition, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			var v float64
			if _, err := fmt.Sscanf(rest, "%g", &v); err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("series %s not in exposition:\n%s", series, exposition)
	return 0
}

func TestRunServesLiveMetrics(t *testing.T) {
	out := &syncBuffer{}
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-seed", "1", "-max-ticks", "3000",
			"-tick-every", "1ms", "-metrics-addr", "127.0.0.1:0",
		}, nil, out)
	}()
	var base string
	for i := 0; i < 500 && base == ""; i++ {
		if m := metricsURLPattern.FindStringSubmatch(out.String()); m != nil {
			base = m[1]
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}
	if base == "" {
		t.Fatalf("bound metrics address never printed:\n%s", out.String())
	}
	first := scrape(t, base+"/metrics")
	for _, want := range []string{
		"agingmf_machine_free_pages",
		"agingmf_monitor_volatility",
		`agingmf_monitor_samples_total{counter="free-memory"}`,
		`agingmf_monitor_jumps_total{`,
	} {
		if !strings.Contains(first, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if got := scrape(t, base+"/healthz"); got != "ok\n" {
		t.Errorf("healthz = %q, want ok", got)
	}
	// Gauges and counters must move while the run is live.
	n1 := sampleValue(t, first, `agingmf_monitor_samples_total{counter="free-memory"}`)
	time.Sleep(200 * time.Millisecond)
	second := scrape(t, base+"/metrics")
	n2 := sampleValue(t, second, `agingmf_monitor_samples_total{counter="free-memory"}`)
	if n2 <= n1 {
		t.Errorf("samples_total did not advance during the run: %v -> %v", n1, n2)
	}
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunEmitsEventJSONL(t *testing.T) {
	evPath := t.TempDir() + "/events.jsonl"
	var out bytes.Buffer
	if err := run([]string{"-seed", "1", "-max-ticks", "20000", "-events", evPath}, nil, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(evPath)
	if err != nil {
		t.Fatalf("read events: %v", err)
	}
	types := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("event line not JSON: %q: %v", line, err)
		}
		for _, key := range []string{"ts", "level", "event"} {
			if _, ok := rec[key].(string); !ok {
				t.Fatalf("event missing %q: %q", key, line)
			}
		}
		types[rec["event"].(string)]++
	}
	for _, want := range []string{"jump", "phase_change", "crash"} {
		if types[want] == 0 {
			t.Errorf("no %q event in stream (saw %v)", want, types)
		}
	}
}

func TestRunSaveFailureReported(t *testing.T) {
	// The state path is a directory: restore skips it, but the save at
	// exit must fail loudly instead of dropping the state on the floor.
	var out bytes.Buffer
	err := run([]string{"-stdin", "-state", t.TempDir()}, strings.NewReader("1000,0\n"), &out)
	if err == nil || !strings.Contains(err.Error(), "save state") {
		t.Errorf("unwritable state path not reported, got: %v", err)
	}
}

func TestRunStateSavedOnStreamError(t *testing.T) {
	// A malformed sample aborts the stream, but everything ingested
	// before it must still be persisted.
	state := t.TempDir() + "/mon.state"
	var out bytes.Buffer
	err := run([]string{"-stdin", "-state", state, "-max-bad-samples", "0"},
		strings.NewReader("1000,0\n2000,0\nnot-a-sample\n"), &out)
	if err == nil {
		t.Fatal("malformed sample should fail a strict-mode run")
	}
	var out2 bytes.Buffer
	if err := run([]string{"-stdin", "-state", state}, strings.NewReader(""), &out2); err != nil {
		t.Fatalf("restore run: %v", err)
	}
	if !strings.Contains(out2.String(), "restored monitor state: 2 samples") {
		t.Errorf("pre-error samples lost:\n%s", out2.String())
	}
}

func TestRunEventsOpenFailure(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-events", t.TempDir() + "/no/such/dir/e.jsonl", "-max-ticks", "10"}, nil, &out)
	if err == nil || !strings.Contains(err.Error(), "open events file") {
		t.Errorf("unopenable events path not reported, got: %v", err)
	}
}

// TestRunServesTraceEndpoints drives a traced simulation run and checks
// the observability surface that rides the metrics listener: the flight
// recorder under the mode's source label, the Chrome/Perfetto export,
// and the pipeline stage histograms.
func TestRunServesTraceEndpoints(t *testing.T) {
	out := &syncBuffer{}
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-seed", "1", "-max-ticks", "4000",
			"-tick-every", "1ms", "-metrics-addr", "127.0.0.1:0",
			"-trace-sample", "1/8", "-flight-recorder-depth", "16",
		}, nil, out)
	}()
	var base string
	for i := 0; i < 500 && base == ""; i++ {
		if m := metricsURLPattern.FindStringSubmatch(out.String()); m != nil {
			base = m[1]
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}
	if base == "" {
		t.Fatalf("bound metrics address never printed:\n%s", out.String())
	}

	// Poll until the recorder has content: the run is live, so the first
	// scrape can race the first item.
	var rec struct {
		Source  string           `json:"source"`
		Depth   int              `json:"depth"`
		Records []map[string]any `json:"records"`
	}
	deadline := time.Now().Add(5 * time.Second)
	for rec.Depth == 0 && time.Now().Before(deadline) {
		if err := json.Unmarshal([]byte(scrape(t, base+"/api/trace/sim")), &rec); err != nil {
			t.Fatalf("recorder endpoint not JSON: %v", err)
		}
		if rec.Depth == 0 {
			time.Sleep(10 * time.Millisecond)
		}
	}
	if rec.Source != "sim" || rec.Depth == 0 || len(rec.Records) != rec.Depth {
		t.Errorf("recorder = source %q depth %d (%d records), want sim with content",
			rec.Source, rec.Depth, len(rec.Records))
	}

	var export struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	for len(export.TraceEvents) == 0 && time.Now().Before(deadline) {
		if err := json.Unmarshal([]byte(scrape(t, base+"/api/trace/export")), &export); err != nil {
			t.Fatalf("trace export not JSON: %v", err)
		}
		if len(export.TraceEvents) == 0 {
			time.Sleep(10 * time.Millisecond)
		}
	}
	names := map[string]bool{}
	for _, ev := range export.TraceEvents {
		if n, ok := ev["name"].(string); ok {
			names[n] = true
		}
	}
	for _, want := range []string{"source.next", "detect"} {
		if !names[want] {
			t.Errorf("export has no %q span (saw %v)", want, names)
		}
	}

	if got := scrape(t, base+"/api/trace/export"); !strings.Contains(got, "displayTimeUnit") {
		t.Errorf("export missing Chrome trace envelope: %.120s", got)
	}
	resp, err := http.Get(base + "/api/trace/no-such-source")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown source label = status %d, want 404", resp.StatusCode)
	}
	if m := scrape(t, base+"/metrics"); !strings.Contains(m, "agingmf_pipeline_stage_seconds") {
		t.Error("stage histograms absent from /metrics")
	}

	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
}
