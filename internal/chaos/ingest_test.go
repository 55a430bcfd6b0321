package chaos

import (
	"context"
	"testing"
	"time"

	"agingmf/internal/aging"
)

// ingestTestMonitor keeps per-source monitors cheap enough for a
// many-producer campaign.
func ingestTestMonitor() aging.Config {
	cfg := aging.DefaultConfig()
	cfg.MinRadius = 2
	cfg.MaxRadius = 8
	cfg.VolatilityWindow = 8
	cfg.DetectorWarmup = 8
	cfg.Refractory = 4
	return cfg
}

// TestIngestChaosAllFaults is the fleet-serving chaos campaign: slow
// clients, mid-stream disconnects, malformed floods and a dead alert
// sink, all at once. The daemon must lose nothing, poison nothing, and
// keep every source's verdict byte-for-byte identical to a
// single-process monitor.
func TestIngestChaosAllFaults(t *testing.T) {
	rep, err := RunIngest(context.Background(), IngestConfig{
		Seed:    11,
		Sources: 12,
		Samples: 150,
		Monitor: ingestTestMonitor(),
		Faults: IngestFaults{
			MalformedRate:   0.2,
			DisconnectEvery: 40,
			SlowEvery:       4,
			SlowDelay:       100 * time.Microsecond,
			AlertSinkOutage: true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("daemon did not degrade gracefully: %+v", rep)
	}
	if rep.Malformed == 0 {
		t.Error("campaign injected no malformed lines; MalformedRate plumbing broken")
	}
	if rep.Disconnects == 0 {
		t.Error("campaign injected no disconnects; DisconnectEvery plumbing broken")
	}
	if rep.BadLines != uint64(rep.Malformed) {
		t.Errorf("daemon counted %d bad lines, campaign injected %d", rep.BadLines, rep.Malformed)
	}
	t.Logf("ingest chaos: %d samples, %d malformed, %d disconnects, %d alerts (%d dropped by dead sink)",
		rep.SamplesSent, rep.Malformed, rep.Disconnects, rep.AlertsPublished, rep.AlertsDroppedBySink)
}

// TestIngestChaosCleanRun sanity-checks the campaign harness itself with
// no faults: a plain concurrent load must pass trivially.
func TestIngestChaosCleanRun(t *testing.T) {
	rep, err := RunIngest(context.Background(), IngestConfig{
		Seed:    5,
		Sources: 8,
		Samples: 80,
		Monitor: ingestTestMonitor(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("clean run failed: %+v", rep)
	}
	if rep.Malformed != 0 || rep.Disconnects != 0 {
		t.Errorf("clean run injected faults: %+v", rep)
	}
}

func TestIngestChaosRejectsBadConfig(t *testing.T) {
	for _, cfg := range []IngestConfig{
		{Faults: IngestFaults{MalformedRate: -0.1}},
		{Faults: IngestFaults{MalformedRate: 1.5}},
		{Faults: IngestFaults{DisconnectEvery: -1}},
		{Faults: IngestFaults{SlowEvery: -2}},
	} {
		if _, err := RunIngest(context.Background(), cfg); err == nil {
			t.Errorf("config %+v accepted", cfg.Faults)
		}
	}
}

// TestIngestChaosFaultForensics turns the flight recorder on during a
// corrupt+stall campaign and checks the faults are visible exactly where
// an operator would look: the corrupted value in the affected source's
// ring, the producer stall as a wall-clock gap in its tail — with parity
// still byte-exact, because wild inputs are data, not errors.
func TestIngestChaosFaultForensics(t *testing.T) {
	const (
		sources = 4
		samples = 64
		depth   = 32
	)
	cfg := IngestConfig{
		Seed:                7,
		Sources:             sources,
		Samples:             samples,
		Monitor:             ingestTestMonitor(),
		TraceSampleEvery:    8,
		FlightRecorderDepth: depth,
		Faults: IngestFaults{
			CorruptEvery: 16,
			StallEvery:   2,
			StallFor:     80 * time.Millisecond,
		},
	}
	rep, err := RunIngest(context.Background(), cfg)
	if err != nil {
		t.Fatalf("RunIngest: %v", err)
	}
	if !rep.Ok() {
		t.Fatalf("campaign degraded: %+v", rep)
	}
	if want := sources * 3; rep.Corrupted != want { // k = 16, 32, 48 per trace
		t.Errorf("Corrupted = %d, want %d", rep.Corrupted, want)
	}
	if rep.Stalls != sources/2 { // producers 0 and 2
		t.Errorf("Stalls = %d, want %d", rep.Stalls, sources/2)
	}
	if len(rep.FlightRecords) != sources {
		t.Fatalf("captured %d flight rings, want %d", len(rep.FlightRecords), sources)
	}

	for i := 0; i < sources; i++ {
		id := ingestSourceID(i)
		recs := rep.FlightRecords[id]
		if len(recs) != depth {
			t.Fatalf("%s: ring holds %d records, want full depth %d", id, len(recs), depth)
		}
		// Rebuild this producer's trace the way the campaign did and check
		// the corrupted sample at k=48 (Seq 49, inside the last 32) landed
		// in the ring verbatim.
		pts := ingestTrace(cfg.Seed, i, samples)
		corruptTraces([][][2]float64{pts}, cfg.Faults.CorruptEvery)
		const k = 48
		found := false
		for _, r := range recs {
			if r.Seq == k+1 {
				found = true
				if r.Free != pts[k][0] || r.Swap != pts[k][1] {
					t.Errorf("%s: ring Seq %d = (%g,%g), want corrupted (%g,%g)",
						id, r.Seq, r.Free, r.Swap, pts[k][0], pts[k][1])
				}
			}
		}
		if !found {
			t.Errorf("%s: corrupted sample Seq %d not in ring", id, k+1)
		}
		if i%cfg.Faults.StallEvery != 0 {
			continue
		}
		// The stalled producers froze 8 samples before the end: their
		// ring tail must show the wall-clock gap.
		var maxGap time.Duration
		for j := 1; j < len(recs); j++ {
			if g := time.Duration(recs[j].Wall - recs[j-1].Wall); g > maxGap {
				maxGap = g
			}
		}
		if maxGap < cfg.Faults.StallFor/2 {
			t.Errorf("%s: largest ring gap %v, want >= %v (stall invisible)",
				id, maxGap, cfg.Faults.StallFor/2)
		}
	}
}
