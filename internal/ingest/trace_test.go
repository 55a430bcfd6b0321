package ingest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"agingmf/internal/obs"
	"agingmf/internal/trace"
)

// TestRegistryTraceThreadingEndToEnd traces every unit (SampleEvery 1)
// through the full pipeline and checks three things at once: every stage
// from parse to alert fan-out produced spans, the flight recorder captured
// an annotated per-sample tail, and — the property everything else rests
// on — the traced path left the monitors byte-for-byte identical to an
// untraced single-process run.
func TestRegistryTraceThreadingEndToEnd(t *testing.T) {
	reg, err := NewRegistry(Config{
		Shards:              2,
		Monitor:             testMonitorConfig(),
		Obs:                 obs.NewRegistry(),
		TraceSampleEvery:    1,
		FlightRecorderDepth: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	const n = 64
	tr := testTrace(1, n)
	// Mix the two wire shapes so both the sample and the batch paths are
	// exercised under tracing: first half line-by-line, second half as
	// one batch.
	for _, p := range tr[:n/2] {
		line := FormatLine(Sample{Source: "m1", Free: p[0], Swap: p[1]})
		if err := reg.IngestLine("", line); err != nil {
			t.Fatal(err)
		}
	}
	if err := reg.IngestLine("", FormatBatch(Batch{Source: "m1", Pairs: tr[n/2:]})); err != nil {
		t.Fatal(err)
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}

	// Stage coverage: every pipeline stage must have produced spans.
	seen := make(map[trace.Stage]int)
	for _, sp := range reg.Tracer().Spans() {
		seen[sp.Stage]++
		if sp.Source != "m1" {
			t.Errorf("span attributed to %q, want m1", sp.Source)
		}
	}
	// Every registry pipeline stage must be covered; StageMigrate belongs
	// to the cluster handoff path, which has its own tracer test.
	for st := trace.StageParse; st < trace.StageMigrate; st++ {
		if seen[st] == 0 {
			t.Errorf("no spans for stage %q (coverage: %v)", st, seen)
		}
	}

	// Flight recorder: the tail must be the last 16 samples, annotated.
	recs, err := reg.FlightRecords("m1")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 16 {
		t.Fatalf("recorder tail has %d records, want 16", len(recs))
	}
	for i, rec := range recs {
		if want := uint64(n - 16 + i + 1); rec.Seq != want {
			t.Errorf("rec[%d].Seq = %d, want %d", i, rec.Seq, want)
		}
		if rec.Phase == "" {
			t.Errorf("rec[%d] has no phase", i)
		}
		if rec.Free != tr[n-16+i][0] || rec.Swap != tr[n-16+i][1] {
			t.Errorf("rec[%d] values (%g, %g) do not match trace", i, rec.Free, rec.Swap)
		}
	}
	last := recs[len(recs)-1]
	if last.TraceSeq == 0 {
		t.Error("last record of a traced batch has no TraceSeq")
	}
	if last.StageNs[trace.StageEst] == 0 || last.StageNs[trace.StageDetect] == 0 {
		t.Errorf("last record missing stage timings: %v", last.StageNs)
	}

	// Parity: the annotated path must not perturb detection state.
	got, err := reg.MonitorState("m1")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, referenceState(t, testMonitorConfig(), tr)) {
		t.Fatal("traced monitor state differs from single-process reference")
	}

	// Metrics: the histogram and depth gauge families must be exposed.
	var text bytes.Buffer
	if err := reg.cfg.Obs.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		trace.MetricStageSeconds, trace.MetricQueueDepth, trace.MetricSpansTotal,
	} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestFlightRecorderWithoutTracing pins the recorder-only mode: with
// sampling off the recorder still captures every sample's annotations,
// but no spans exist and no unit carries a trace sequence.
func TestFlightRecorderWithoutTracing(t *testing.T) {
	reg, err := NewRegistry(Config{
		Shards:              1,
		Monitor:             testMonitorConfig(),
		FlightRecorderDepth: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	if reg.Tracer() != nil {
		t.Fatal("tracer must be nil with TraceSampleEvery 0")
	}
	for _, p := range testTrace(2, 10) {
		if err := reg.Ingest(Sample{Source: "m2", Free: p[0], Swap: p[1]}); err != nil {
			t.Fatal(err)
		}
	}
	reg.Close()
	recs, err := reg.FlightRecords("m2")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("recorder tail has %d records, want 4", len(recs))
	}
	for i, rec := range recs {
		if rec.TraceSeq != 0 {
			t.Errorf("rec[%d].TraceSeq = %d, want 0 (tracing disabled)", i, rec.TraceSeq)
		}
	}
}

// TestFlightRecordsErrors pins the accessor's edge cases: unknown sources
// are an error, sources without a recorder return an empty tail.
func TestFlightRecordsErrors(t *testing.T) {
	reg, err := NewRegistry(Config{Shards: 1, Monitor: testMonitorConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	if _, err := reg.FlightRecords("nope"); err == nil {
		t.Fatal("unknown source must error")
	}
	if err := reg.Ingest(Sample{Source: "m1", Free: 1, Swap: 0}); err != nil {
		t.Fatal(err)
	}
	reg.Close()
	recs, err := reg.FlightRecords("m1")
	if err != nil {
		t.Fatal(err)
	}
	if recs != nil {
		t.Fatalf("disabled recorder returned %d records, want none", len(recs))
	}
}

// TestServerTraceEndpoints drives the HTTP surface: the per-source
// recorder endpoint, the Perfetto-importable export, and the 404 for
// unknown sources.
func TestServerTraceEndpoints(t *testing.T) {
	srv := startTestServer(t, func(cfg *ServerConfig) {
		cfg.Registry.TraceSampleEvery = 1
		cfg.Registry.FlightRecorderDepth = 8
		cfg.Registry.Obs = obs.NewRegistry()
	})
	conn, err := net.Dial("tcp", srv.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range testTrace(3, 32) {
		fmt.Fprintln(conn, FormatLine(Sample{Source: "m3", Free: p[0], Swap: p[1]}))
	}
	conn.Close()
	waitAccepted(t, srv.Registry(), 32)

	base := "http://" + srv.HTTPAddr().String()
	var rec struct {
		Source  string         `json:"source"`
		Depth   int            `json:"depth"`
		Records []trace.Record `json:"records"`
	}
	getJSON(t, base+"/api/trace/m3", &rec)
	if rec.Source != "m3" || rec.Depth != 8 || len(rec.Records) != 8 {
		t.Fatalf("recorder endpoint: %+v", rec)
	}
	if rec.Records[7].Seq != 32 {
		t.Errorf("newest record Seq = %d, want 32", rec.Records[7].Seq)
	}

	resp, err := http.Get(base + "/api/trace/export")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("export status %d", resp.StatusCode)
	}
	var export struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &export); err != nil {
		t.Fatalf("export is not JSON: %v", err)
	}
	if len(export.TraceEvents) == 0 {
		t.Fatal("export has no events")
	}
	for _, ev := range export.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("unexpected event phase %q", ev.Ph)
		}
	}

	if resp, err := http.Get(base + "/api/trace/unknown-source"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown source status = %d, want 404", resp.StatusCode)
		}
	}
}

// TestServerStalledShardFlipsHealth wedges the single shard's goroutine
// with a blocking control closure while samples pile up in its queue, and
// asserts /healthz flips to 503 "stalled" — then recovers once the shard
// drains. This is the watchdog for the failure mode where one partition
// silently freezes while the rest of the daemon keeps answering.
func TestServerStalledShardFlipsHealth(t *testing.T) {
	srv := startTestServer(t, func(cfg *ServerConfig) {
		cfg.Registry.Shards = 1
		cfg.Registry.QueueSize = 64
		cfg.Registry.DropWhenFull = true
		cfg.Registry.StallTimeout = 80 * time.Millisecond
	})
	reg := srv.Registry()

	unblock := make(chan struct{})
	released := false
	defer func() {
		if !released {
			close(unblock)
		}
	}()
	entered := make(chan struct{})
	go reg.withShard(reg.shards[0], func(*shard) {
		close(entered)
		<-unblock
	})
	<-entered // the shard goroutine is now wedged

	// Queue work behind the wedged closure; accepted cannot advance.
	for i := 0; i < 8; i++ {
		_ = reg.Ingest(Sample{Source: "m1", Free: float64(i), Swap: 0})
	}

	base := "http://" + srv.HTTPAddr().String()
	waitHealth := func(wantCode int, wantBody string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			resp, err := http.Get(base + "/healthz")
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == wantCode && strings.Contains(string(body), wantBody) {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("healthz = %d %q, want %d %q", resp.StatusCode, body, wantCode, wantBody)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitHealth(http.StatusServiceUnavailable, "stalled")

	released = true
	close(unblock)
	waitHealth(http.StatusOK, "")
	waitAccepted(t, reg, 8)
}

// TestSlowAlertSubscriberNeverBlocksIngest is the drop-path contract: a
// subscriber that never drains (a blocked webhook, a wedged sink) loses
// alerts — counted per sink in the exposition — while ingestion proceeds
// at full speed. The shard goroutines publish alerts inline, so any
// blocking here would stall the entire partition.
func TestSlowAlertSubscriberNeverBlocksIngest(t *testing.T) {
	reg, err := NewRegistry(Config{
		Shards:  1,
		Monitor: testMonitorConfig(),
		Obs:     obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	// Buffer 1, never drained: everything past the first alert must drop.
	sub := reg.Alerts().Subscribe("wedged-webhook", 1)
	defer sub.Cancel()

	// A steeply decaying trace through the small test detector fires many
	// jump and phase alerts.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, p := range testTrace(5, 512) {
			if err := reg.Ingest(Sample{Source: "m5", Free: p[0], Swap: p[1]}); err != nil {
				t.Errorf("ingest: %v", err)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("ingestion stalled behind a slow subscriber")
	}
	reg.Close()

	if reg.Accepted() != 512 {
		t.Fatalf("accepted %d/512", reg.Accepted())
	}
	if total := reg.Alerts().Total(); total < 2 {
		t.Fatalf("test needs multiple alerts to exercise drops, got %d", total)
	}
	if sub.Dropped() == 0 {
		t.Fatal("undrained subscriber reports no drops")
	}
	var text bytes.Buffer
	if err := reg.cfg.Obs.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf(`%s{sink="wedged-webhook"} %d`, metricAlertDropsFleet, sub.Dropped())
	if !strings.Contains(text.String(), want) {
		t.Errorf("exposition missing %q in:\n%s", want, text.String())
	}
	if strings.Contains(text.String(), "agingmf_ingest_alert_drops_total") {
		t.Errorf("drops counted on a second family besides %s:\n%s", metricAlertDropsFleet, text.String())
	}
}
