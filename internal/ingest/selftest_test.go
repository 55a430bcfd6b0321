package ingest

import (
	"context"
	"testing"
	"time"
)

// TestSelfTestSmall exercises the full loop quickly: simulated machines,
// real sockets, parity verification.
func TestSelfTestSmall(t *testing.T) {
	srv := startTestServer(t, nil)
	rep, err := RunSelfTest(context.Background(), srv, SelfTestConfig{
		Sources: 8,
		Samples: 64,
		Conns:   3,
		Seed:    7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("self-test failed: %+v", rep)
	}
	if rep.SamplesSent == 0 || rep.Accepted != uint64(rep.SamplesSent) {
		t.Errorf("accounting: %+v", rep)
	}
}

// TestSelfTestThousandSources is the fleet-scale acceptance test: 1000
// concurrent simulated sources through real loopback sockets at the
// default queue sizes, with zero dropped samples and byte-for-byte
// monitor parity for every source.
func TestSelfTestThousandSources(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet-scale self-test skipped in -short mode")
	}
	srv := startTestServer(t, func(c *ServerConfig) {
		c.Registry = Config{Monitor: testMonitorConfig()} // default shards & queues
	})
	rep, err := RunSelfTest(context.Background(), srv, SelfTestConfig{
		Sources: 1000,
		Samples: 24,
		Seed:    1,
		Timeout: 4 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dropped != 0 {
		t.Errorf("dropped %d samples at default queue sizes", rep.Dropped)
	}
	if rep.Accepted != uint64(rep.SamplesSent) {
		t.Errorf("accepted %d of %d samples", rep.Accepted, rep.SamplesSent)
	}
	if len(rep.ParityMismatches) != 0 {
		t.Errorf("%d sources diverged from single-process monitors: %v",
			len(rep.ParityMismatches), rep.ParityMismatches)
	}
	if srv.Registry().NumSources() != 1000 {
		t.Errorf("registry tracks %d sources, want 1000", srv.Registry().NumSources())
	}
	t.Logf("self-test: %d sources, %d samples, %d alerts in %v",
		rep.Sources, rep.SamplesSent, rep.Alerts, rep.Elapsed.Round(time.Millisecond))
}

// TestSelfTestBatched runs the same loop over batch; framed wire lines:
// parity against per-sample reference monitors proves batching changes
// the transport, not the verdicts.
func TestSelfTestBatched(t *testing.T) {
	srv := startTestServer(t, nil)
	rep, err := RunSelfTest(context.Background(), srv, SelfTestConfig{
		Sources:   8,
		Samples:   64,
		Conns:     3,
		BatchSize: 9, // deliberately does not divide Samples: ragged tail batch
		Seed:      7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("batched self-test failed: %+v", rep)
	}
}

// TestSelfTestTracedAndRecorded runs the self-test with both tracing and
// the flight recorder on: parity must still hold (the annotated path is
// verdict-neutral), the recorder tails must agree with the wire traces,
// and the tracer must have retained spans.
func TestSelfTestTracedAndRecorded(t *testing.T) {
	srv := startTestServer(t, func(c *ServerConfig) {
		c.Registry.TraceSampleEvery = 16
		c.Registry.FlightRecorderDepth = 32
	})
	rep, err := RunSelfTest(context.Background(), srv, SelfTestConfig{
		Sources:   8,
		Samples:   64,
		Conns:     3,
		BatchSize: 9,
		Seed:      7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("traced self-test failed: %+v", rep)
	}
	if len(rep.RecorderFailures) != 0 {
		t.Errorf("recorder disagrees with wire traces: %v", rep.RecorderFailures)
	}
	if rep.TraceSpans == 0 {
		t.Error("tracing was on but no spans were retained")
	}
}

// TestSelfTestFailsFastOnDrops: a self-test whose samples are dropped
// (here: more sources than the registry admits) must report failure as
// soon as the first drop shows, not wait out its timeout for samples
// that will never be accepted.
func TestSelfTestFailsFastOnDrops(t *testing.T) {
	srv := startTestServer(t, func(c *ServerConfig) { c.Registry.MaxSources = 2 })
	start := time.Now()
	rep, err := RunSelfTest(context.Background(), srv, SelfTestConfig{
		Sources: 4,
		Samples: 32,
		Seed:    7,
		Timeout: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("self-test with dropped samples took %v; it waited for samples that were never coming", elapsed)
	}
	if rep.Ok() || rep.Dropped == 0 {
		t.Fatalf("dropped samples not reported as a failure: %+v", rep)
	}
	if rep.Dropped > uint64(rep.SamplesSent) {
		t.Fatalf("dropped %d of %d sent: not this run's count", rep.Dropped, rep.SamplesSent)
	}
}

func TestSelfTestNeedsTCP(t *testing.T) {
	srv, err := NewServer(ServerConfig{Registry: Config{Monitor: testMonitorConfig()}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Registry().Close()
	if _, err := RunSelfTest(context.Background(), srv, SelfTestConfig{}); err == nil {
		t.Error("self-test without a TCP listener succeeded")
	}
}

// TestBinarySelfTestSmall exercises the binary-wire loop quickly: framed
// columnar load over real sockets, zero rejects, per-sample parity.
func TestBinarySelfTestSmall(t *testing.T) {
	srv := startTestServer(t, nil)
	rep, err := RunBinarySelfTest(context.Background(), srv, BinarySelfTestConfig{
		Sources:      3,
		Samples:      500,
		FrameSamples: 64, // ragged tail frame
		Conns:        2,
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("binary self-test failed: %+v", rep)
	}
	if rep.SamplesSent != 1500 || rep.Accepted != 1500 || rep.FramesSent != 24 {
		t.Errorf("accounting: %+v", rep)
	}
	if rep.SamplesPerSec <= 0 {
		t.Errorf("throughput not measured: %+v", rep)
	}
}

func TestBinarySelfTestNeedsTCP(t *testing.T) {
	srv, err := NewServer(ServerConfig{Registry: Config{Monitor: testMonitorConfig()}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Registry().Close()
	if _, err := RunBinarySelfTest(context.Background(), srv, BinarySelfTestConfig{}); err == nil {
		t.Error("binary self-test without a TCP listener succeeded")
	}
}
