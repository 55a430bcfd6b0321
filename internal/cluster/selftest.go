package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"agingmf/internal/aging"
	"agingmf/internal/detect"
	"agingmf/internal/ingest"
)

// SelfTestConfig parameterizes RunSelfTest. The zero fault flags run
// the default churn campaign; each flag layers one fault on top of it.
type SelfTestConfig struct {
	// Nodes is the in-process cluster size (0 selects 3; minimum 3 — the
	// campaign kills one and needs a quorum of survivors to adopt).
	Nodes int
	// Sources is the simulated fleet size (0 selects 100000).
	Sources int
	// Samples is the per-source trace length (0 selects 24; minimum 3 so
	// every churn phase carries data).
	Samples int
	// Seed makes the generated traces reproducible (0 selects 1).
	Seed int64
	// Shards is the per-node registry shard count (0 selects 4).
	Shards int
	// Detectors selects each node's per-source detector suite (see
	// internal/detect); empty selects holder only. The parity oracle runs
	// the same suite.
	Detectors []string
	// UnsyncedKill turns the kill into a crash without the final store
	// sync: the store syncs before phase 2 and the victim dies while
	// phase 2 streams, so survivors adopt from that older snapshot. A
	// source the victim held may lose exactly its middle third, and that
	// is the only loss allowed: every source must match the oracle of
	// either its whole trace or its first and last thirds.
	UnsyncedKill bool
	// Partition cuts the link between two survivors for
	// selfTestPartition while phase 2 streams, then heals it. The cut is
	// shorter than the down-mark tolerance, so routing blocks and retries
	// instead of split-braining: zero loss, exact parity.
	Partition bool
	// MigrateUnderLoad fires live migrations of busy sources between
	// nodes while phase 3 streams: handoffs must block, release and keep
	// byte parity under concurrent ingest.
	MigrateUnderLoad bool
	// Logf receives progress lines (nil: silent).
	Logf func(format string, args ...any)
}

const (
	// selfTestProducers is the number of concurrent producer goroutines.
	selfTestProducers = 4
	// selfTestHeartbeatMiss is the down-mark tolerance in missed 25 ms
	// beats: long enough that the short partition never down-marks a
	// live peer (which would split-brain the pair), short enough that a
	// kill is detected in ~200 ms.
	selfTestHeartbeatMiss = 8
	// selfTestPartition is how long the Partition fault cuts the link.
	selfTestPartition = 50 * time.Millisecond
)

// withDefaults resolves the zero-value conveniences.
func (c SelfTestConfig) withDefaults() SelfTestConfig {
	if c.Nodes < 3 {
		c.Nodes = 3
	}
	if c.Sources <= 0 {
		c.Sources = 100000
	}
	if c.Samples < 3 {
		if c.Samples == 0 {
			c.Samples = 24
		} else {
			c.Samples = 3
		}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Shards <= 0 {
		c.Shards = 4
	}
	return c
}

// SelfTestResult summarizes a cluster self-test campaign.
type SelfTestResult struct {
	Nodes            int    `json:"nodes"`
	Sources          int    `json:"sources"`
	SamplesPerSource int    `json:"samples_per_source"`
	LinesSent        uint64 `json:"lines_sent"`
	SendRetries      uint64 `json:"send_retries"`
	Migrations       uint64 `json:"migrations"`
	OwnerChanges     uint64 `json:"owner_changes"`
	Forwards         uint64 `json:"forwards"`
	AdoptionsRestore uint64 `json:"adoptions_restored"`
	// VictimSources counts the sources the killed node held when it died.
	VictimSources int `json:"victim_sources"`
	// ParityMismatches lists sources whose final state matches no legal
	// oracle replay: "id", or "id/detector" when one detector diverged.
	ParityMismatches []string `json:"parity_mismatches"`
	MultiOwned       int      `json:"multi_owned"`
	Missing          int      `json:"missing"`
	// SampleLoss is the samples sent but not in their source's final
	// state; non-zero only under UnsyncedKill.
	SampleLoss int64         `json:"sample_loss"`
	Elapsed    time.Duration `json:"elapsed"`
}

// selfTestMonitorConfig is deliberately small: the campaign's point is
// routing and migration correctness over a large fleet, not detector
// depth, and 100k monitors must fit comfortably in memory.
func selfTestMonitorConfig() aging.Config {
	return aging.Config{
		MinRadius:        2,
		MaxRadius:        8, // three dyadic rungs (2,4,8) — the estimator minimum
		VolatilityWindow: 8,
		Detector:         aging.DetectShewhart,
		ShewhartK:        4,
		DetectorWarmup:   8,
		Refractory:       4,
	}
}

// RunSelfTest drives an in-process cluster (MemTransport, shared
// MemStore) of cfg.Nodes nodes through a full churn campaign:
//
//  1. every source streams the first third of its trace through a
//     deterministic entry node (exercising forwarding and consistent-hash
//     routing),
//  2. one node is killed (by default before the phase, with its final
//     states synced to the shared store, as a periodic store-sync would
//     have; with UnsyncedKill mid-phase without that sync) and the second
//     third streams through the survivors, forcing dead-node adoption
//     with restore-from-last-snapshot,
//  3. the killed node rejoins with an empty registry and the final third
//     streams while the survivors rebalance live sources back onto it —
//     migration under load.
//
// Partition and MigrateUnderLoad add their faults to phases 2 and 3.
// The campaign then verifies: every source is held by exactly one node,
// no sample was lost but for the legal UnsyncedKill window, and every
// source's final detector state is byte-for-byte identical to the
// per-sample oracle (detect.Replay) of a legal replay of its trace —
// the zero drops / zero parity mismatches acceptance gate. A non-nil
// error means the campaign could not run or an invariant failed.
func RunSelfTest(cfg SelfTestConfig) (SelfTestResult, error) {
	cfg = cfg.withDefaults()
	res := SelfTestResult{Nodes: cfg.Nodes, Sources: cfg.Sources, SamplesPerSource: cfg.Samples}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	start := time.Now()

	// Deterministic traces: a positive random walk per source, occasional
	// level shifts so the detector pipeline has real work.
	traces := makeTraces(cfg.Seed, cfg.Sources, cfg.Samples)
	ids := make([]string, cfg.Sources)
	for i := range ids {
		ids[i] = fmt.Sprintf("st-%06d", i)
	}

	tr := NewMemTransport()
	store := NewMemStore()
	names := make([]string, cfg.Nodes)
	for i := range names {
		names[i] = fmt.Sprintf("node-%d", i)
	}
	regCfg := ingest.Config{
		Shards:     cfg.Shards,
		QueueSize:  256,
		Monitor:    selfTestMonitorConfig(),
		Detectors:  cfg.Detectors,
		MaxSources: -1,
	}
	nodes := make([]*Node, cfg.Nodes)
	newNode := func(i int) (*Node, error) {
		reg, err := ingest.NewRegistry(regCfg)
		if err != nil {
			return nil, err
		}
		peers := make([]string, 0, cfg.Nodes-1)
		for _, p := range names {
			if p != names[i] {
				peers = append(peers, p)
			}
		}
		n, err := NewNode(Config{
			Self:           names[i],
			Peers:          peers,
			Transport:      tr,
			Registry:       reg,
			Store:          store,
			HeartbeatEvery: 25 * time.Millisecond,
			HeartbeatMiss:  selfTestHeartbeatMiss,
		})
		if err != nil {
			reg.Close()
			return nil, err
		}
		tr.Register(n)
		return n, nil
	}
	for i := range nodes {
		n, err := newNode(i)
		if err != nil {
			return res, err
		}
		nodes[i] = n
	}
	for _, n := range nodes {
		n.Start()
	}
	defer func() {
		for _, n := range nodes {
			if n != nil {
				n.Stop()
				_ = n.Registry().Close()
			}
		}
	}()

	var lines, retries atomic.Uint64
	// sendPhase streams pairs [from:to) of the trace of every source in
	// [lo:hi) as one wire batch per source, entry node chosen
	// deterministically per source. Transient routing failures (a dying
	// peer not yet marked down) are retried — the producer contract is
	// at-least-once attempts with per-source ordering, so a failed line is
	// retried before the source's next line, never skipped.
	sendPhase := func(entries []*Node, from, to, lo, hi int) error {
		var wg sync.WaitGroup
		errc := make(chan error, selfTestProducers)
		chunk := (hi - lo + selfTestProducers - 1) / selfTestProducers
		for p := 0; p < selfTestProducers; p++ {
			lo, hi := lo+p*chunk, min(lo+(p+1)*chunk, hi)
			if lo >= hi {
				continue
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				for i := lo; i < hi; i++ {
					line := ingest.FormatBatch(ingest.Batch{Source: ids[i], Pairs: traces[i][from:to]})
					entry := entries[i%len(entries)]
					var err error
					for attempt := 0; attempt < 400; attempt++ {
						if err = entry.IngestLine("selftest", line); err == nil {
							break
						}
						retries.Add(1)
						time.Sleep(5 * time.Millisecond)
					}
					if err != nil {
						errc <- fmt.Errorf("cluster selftest: source %s: %w", ids[i], err)
						return
					}
					lines.Add(1)
				}
			}(lo, hi)
		}
		wg.Wait()
		close(errc)
		return <-errc
	}

	third := cfg.Samples / 3
	cuts := [4]int{0, third, 2 * third, cfg.Samples}

	logf("cluster selftest: %d nodes, %d sources, %d samples each", cfg.Nodes, cfg.Sources, cfg.Samples)
	logf("phase 1/3: streaming with full membership")
	if err := sendPhase(nodes, cuts[0], cuts[1], 0, cfg.Sources); err != nil {
		return res, err
	}

	victim := 1
	survivors := append(append([]*Node{}, nodes[:victim]...), nodes[victim+1:]...)
	// victimHeld records the sources the victim held when it died: the
	// only ones whose middle third an unsynced kill may lose.
	victimHeld := map[string]bool{}
	kill := func(syncStore bool) error {
		n := nodes[victim]
		nodes[victim] = nil
		err := n.Halt(syncStore)
		tr.Unregister(names[victim])
		for _, st := range n.Registry().Sources() {
			victimHeld[st.ID] = true
		}
		res.VictimSources = len(victimHeld)
		return err
	}
	if cfg.UnsyncedKill {
		logf("syncing the store; %s will crash mid-phase without a final sync", names[victim])
		if err := nodes[victim].SyncStore(); err != nil {
			return res, fmt.Errorf("cluster selftest: store sync: %w", err)
		}
	} else {
		logf("killing %s (final states sync to the shared store)", names[victim])
		if err := kill(true); err != nil {
			return res, err
		}
		if err := waitFor(5*time.Second, func() bool {
			for _, n := range survivors {
				if n.Ring().Has(names[victim]) {
					return false
				}
			}
			return true
		}); err != nil {
			return res, fmt.Errorf("cluster selftest: survivors did not mark %s down: %w", names[victim], err)
		}
	}

	logf("phase 2/3: streaming through survivors (dead-node adoption)")
	// The phase-2 faults fire after the first half of the sources has
	// streamed, so the second half runs into them.
	mid := cfg.Sources
	if cfg.Partition || cfg.UnsyncedKill {
		mid = cfg.Sources / 2
	}
	if err := sendPhase(survivors, cuts[1], cuts[2], 0, mid); err != nil {
		return res, err
	}
	a, b := survivors[0].Name(), survivors[1].Name()
	if cfg.Partition {
		logf("partitioning %s from %s for %v mid-phase", a, b, selfTestPartition)
		tr.Partition(a, b)
		heal := time.AfterFunc(selfTestPartition, func() { tr.Heal(a, b) })
		defer heal.Stop()
	}
	if cfg.UnsyncedKill {
		logf("crashing %s mid-phase", names[victim])
		if err := kill(false); err != nil {
			return res, err
		}
	}
	if err := sendPhase(survivors, cuts[1], cuts[2], mid, cfg.Sources); err != nil {
		return res, err
	}
	tr.Heal(a, b) // no-op unless the phase outran the partition

	logf("restarting %s with an empty registry (rebalance under load)", names[victim])
	rejoined, err := newNode(victim)
	if err != nil {
		return res, err
	}
	nodes[victim] = rejoined
	rejoined.Start()
	if err := waitFor(5*time.Second, func() bool {
		for _, n := range nodes {
			if n.Ring().Size() != cfg.Nodes {
				return false
			}
		}
		return true
	}); err != nil {
		return res, fmt.Errorf("cluster selftest: ring did not reconverge after rejoin: %w", err)
	}

	logf("phase 3/3: streaming during rebalance")
	var migrations sync.WaitGroup
	if cfg.MigrateUnderLoad {
		logf("migrating busy sources between nodes mid-phase")
		migrations.Add(1)
		go func() {
			defer migrations.Done()
			for round := 0; round < 3; round++ {
				for i, n := range nodes {
					target := nodes[(i+1)%len(nodes)].Name()
					srcs := n.Registry().Sources()
					for _, st := range srcs[:min(len(srcs), 4)] {
						// A skipped (ErrNotHeld, ErrMigrationInFlight) or
						// rolled-back handoff leaves the source where it
						// was; the ownership check below still covers it.
						_ = n.Migrate(context.Background(), st.ID, target)
					}
				}
				time.Sleep(5 * time.Millisecond)
			}
		}()
	}
	err = sendPhase(nodes, cuts[2], cuts[3], 0, cfg.Sources)
	migrations.Wait()
	if err != nil {
		return res, err
	}

	// Ingest enqueues asynchronously: flush every shard queue so Misplaced
	// and the verification below see all delivered samples.
	for _, n := range nodes {
		if err := n.Registry().Drain(); err != nil {
			return res, fmt.Errorf("cluster selftest: drain %s: %w", n.Name(), err)
		}
	}

	logf("settling: rebalancing until no source is misplaced")
	if err := waitFor(120*time.Second, func() bool {
		misplaced := 0
		for _, n := range nodes {
			_ = n.Rebalance(context.Background())
			misplaced += n.Misplaced()
		}
		return misplaced == 0
	}); err != nil {
		return res, fmt.Errorf("cluster selftest: rebalance did not settle: %w", err)
	}

	for _, n := range nodes {
		st := n.Status()
		res.Migrations += st.Migrations
		res.OwnerChanges += st.OwnerChanges
		res.Forwards += st.Forwards
		res.AdoptionsRestore += st.AdoptionsRestore
	}
	res.LinesSent = lines.Load()
	res.SendRetries = retries.Load()

	logf("verifying: single ownership, zero loss, oracle parity")
	for i, id := range ids {
		var owner *Node
		owners := 0
		for _, n := range nodes {
			if _, ok := n.Registry().Source(id); ok {
				owner = n
				owners++
			}
		}
		if owners != 1 {
			res.MultiOwned += max(owners-1, 0)
			if owners == 0 {
				res.Missing++
			}
			continue
		}
		st, _ := owner.Registry().Source(id)
		res.SampleLoss += int64(cfg.Samples) - st.Samples
		got, err := owner.Registry().MonitorState(id)
		if err != nil {
			return res, fmt.Errorf("cluster selftest: state of %s: %w", id, err)
		}
		trace := traces[i]
		want, err := detect.Replay(regCfg.Detectors, regCfg.DetectorConfig(), trace)
		if err != nil {
			return res, err
		}
		mismatches, n := detect.Mismatches(id, got, want), len(trace)
		if mismatches != nil && cfg.UnsyncedKill && victimHeld[id] {
			// The other legal replay: the middle third died with the
			// victim, which accepted it after the last store sync.
			want, err := detect.Replay(regCfg.Detectors, regCfg.DetectorConfig(), trace[:cuts[1]], trace[cuts[2]:])
			if err != nil {
				return res, err
			}
			if detect.Mismatches(id, got, want) == nil {
				mismatches, n = nil, len(trace)-(cuts[2]-cuts[1])
			}
		}
		if mismatches == nil && st.Samples != int64(n) {
			mismatches = []string{id} // the state matches, the sample count does not
		}
		res.ParityMismatches = append(res.ParityMismatches, mismatches...)
	}
	res.Elapsed = time.Since(start)

	var errs []error
	if res.MultiOwned > 0 || res.Missing > 0 {
		errs = append(errs, fmt.Errorf("ownership violated: %d multi-owned, %d missing", res.MultiOwned, res.Missing))
	}
	if res.SampleLoss != 0 && !cfg.UnsyncedKill {
		errs = append(errs, fmt.Errorf("sample loss: %d", res.SampleLoss))
	}
	if len(res.ParityMismatches) > 0 {
		errs = append(errs, fmt.Errorf("parity mismatches: %d, first %v",
			len(res.ParityMismatches), res.ParityMismatches[:min(len(res.ParityMismatches), 8)]))
	}
	if res.AdoptionsRestore == 0 {
		errs = append(errs, errors.New("no dead-node adoption happened — the kill phase did not exercise failover"))
	}
	if err := errors.Join(errs...); err != nil {
		return res, fmt.Errorf("cluster selftest: %w", err)
	}
	logf("ok: %d lines, %d migrations, %d adoptions, %d forwards in %v",
		res.LinesSent, res.Migrations, res.AdoptionsRestore, res.Forwards, res.Elapsed.Round(time.Millisecond))
	return res, nil
}

// makeTraces builds a deterministic positive random walk with occasional
// level shifts for each source.
func makeTraces(seed int64, sources, samples int) [][][2]float64 {
	out := make([][][2]float64, sources)
	for i := range out {
		rng := rand.New(rand.NewSource(seed + int64(i)*7919))
		pairs := make([][2]float64, samples)
		free := 4e9 + rng.Float64()*2e9
		swap := 1e8 + rng.Float64()*1e8
		for k := range pairs {
			free += (rng.Float64() - 0.5) * 2e8
			swap += (rng.Float64() - 0.45) * 1e7
			if rng.Intn(16) == 0 {
				free -= 1e9 // a leak burst — detector fodder
			}
			if free < 1e6 {
				free = 1e6
			}
			if swap < 0 {
				swap = 0
			}
			pairs[k] = [2]float64{free, swap}
		}
		out[i] = pairs
	}
	return out
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(d time.Duration, cond func() bool) error {
	deadline := time.Now().Add(d)
	for {
		if cond() {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("condition not met within %v", d)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
