package cluster

import "testing"

// TestRunSelfTestSmall runs the full kill/restart/rebalance campaign at
// a size CI can afford; cmd/agingd -selftest-cluster runs the 100k-source
// version of exactly this code path.
func TestRunSelfTestSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster campaign is seconds-long; skipped in -short")
	}
	res, err := RunSelfTest(SelfTestConfig{
		Nodes:   3,
		Sources: 300,
		Samples: 9,
		Shards:  2,
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatalf("campaign failed: %v (%+v)", err, res)
	}
	if res.AdoptionsRestore == 0 {
		t.Fatal("kill phase produced no adoptions")
	}
	if res.Migrations == 0 {
		t.Fatal("rejoin phase produced no migrations")
	}
	if res.Forwards == 0 {
		t.Fatal("routing produced no forwards")
	}
	if res.LinesSent != 3*300 {
		t.Fatalf("lines sent %d, want %d", res.LinesSent, 3*300)
	}
}

// runFaultCampaign runs one small campaign with the given faults; the
// sizes stay cheap enough for the -short robustness suite.
func runFaultCampaign(t *testing.T, cfg SelfTestConfig) SelfTestResult {
	t.Helper()
	cfg.Sources, cfg.Samples, cfg.Shards = 48, 30, 2
	res, err := RunSelfTest(cfg)
	if err != nil {
		t.Fatalf("campaign failed: %v (%+v)", err, res)
	}
	if len(res.ParityMismatches) != 0 {
		t.Fatalf("states match no legal oracle replay: %v", res.ParityMismatches)
	}
	t.Logf("%d lines (%d retries), %d forwards, %d migrations, %d adoptions, %d victim sources, loss %d",
		res.LinesSent, res.SendRetries, res.Forwards, res.Migrations, res.AdoptionsRestore, res.VictimSources, res.SampleLoss)
	return res
}

// TestSelfTestPlainLoad: routed load through the default kill and
// rejoin — zero loss and exact parity are unconditional.
func TestSelfTestPlainLoad(t *testing.T) {
	res := runFaultCampaign(t, SelfTestConfig{Seed: 11})
	if res.SampleLoss != 0 {
		t.Fatalf("plain load lost %d samples: %+v", res.SampleLoss, res)
	}
	if res.Forwards == 0 {
		t.Fatalf("routing never forwarded — the cluster was not exercised: %+v", res)
	}
}

// TestSelfTestPartitionMigrate: live migrations and a short partition
// while streaming — still zero loss, still exact parity (the cut is
// shorter than the down-mark tolerance, so routing blocks and retries
// instead of split-braining).
func TestSelfTestPartitionMigrate(t *testing.T) {
	res := runFaultCampaign(t, SelfTestConfig{Seed: 12, Partition: true, MigrateUnderLoad: true})
	if res.SampleLoss != 0 {
		t.Fatalf("zero-loss invariant broken: %+v", res)
	}
	if res.Migrations == 0 {
		t.Fatalf("no migration completed under load: %+v", res)
	}
}

// TestSelfTestUnsyncedKill: a crash-kill without the final store sync.
// Loss is allowed — but only the victim's post-snapshot window: every
// source must end singly owned with state matching a legal replay of
// the batches that survived.
func TestSelfTestUnsyncedKill(t *testing.T) {
	res := runFaultCampaign(t, SelfTestConfig{Seed: 13, UnsyncedKill: true, MigrateUnderLoad: true})
	if res.VictimSources == 0 {
		t.Fatalf("the kill found no sources on the victim: %+v", res)
	}
	if res.AdoptionsRestore == 0 {
		t.Fatalf("no stale-snapshot adoption happened: %+v", res)
	}
	if res.SampleLoss == 0 {
		t.Fatalf("the crash lost no post-snapshot window; the short replay was never checked: %+v", res)
	}
}

// TestSelfTestUnsyncedKillMigrateAllDetectors: the unsynced kill and
// migrations under load with every detector on — the entropy and
// adaptive states must survive adoption and handoff byte for byte too.
func TestSelfTestUnsyncedKillMigrateAllDetectors(t *testing.T) {
	res := runFaultCampaign(t, SelfTestConfig{
		Seed:             14,
		Detectors:        []string{"holder", "entropy", "adaptive"},
		UnsyncedKill:     true,
		MigrateUnderLoad: true,
	})
	if res.VictimSources == 0 || res.AdoptionsRestore == 0 {
		t.Fatalf("the kill did not exercise adoption: %+v", res)
	}
	if res.Migrations == 0 {
		t.Fatalf("no migration completed under load: %+v", res)
	}
}
