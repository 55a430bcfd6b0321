package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"agingmf/internal/aging"
	"agingmf/internal/control"
	"agingmf/internal/ingest"
	"agingmf/internal/trace"
)

// testCluster builds n in-process nodes over a fresh MemTransport and
// shared MemStore. hb == 0 disables heartbeats (membership then changes
// only via the initial Start probes and announces — deterministic).
func testCluster(t *testing.T, n int, hb time.Duration) ([]*Node, *MemTransport, *MemStore) {
	t.Helper()
	return testClusterOver(t, n, hb, nil)
}

// testClusterOver is testCluster with the nodes' transport wrapped by
// wrap (nil keeps the bare MemTransport), so a test can intercept calls.
func testClusterOver(t *testing.T, n int, hb time.Duration, wrap func(*MemTransport) Transport) ([]*Node, *MemTransport, *MemStore) {
	t.Helper()
	tr := NewMemTransport()
	var via Transport = tr
	if wrap != nil {
		via = wrap(tr)
	}
	store := NewMemStore()
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("node-%d", i)
	}
	nodes := make([]*Node, n)
	for i := range nodes {
		reg, err := ingest.NewRegistry(ingest.Config{
			Shards:    2,
			QueueSize: 64,
			Monitor:   selfTestMonitorConfig(),
		})
		if err != nil {
			t.Fatal(err)
		}
		peers := make([]string, 0, n-1)
		for _, p := range names {
			if p != names[i] {
				peers = append(peers, p)
			}
		}
		node, err := NewNode(Config{
			Self:           names[i],
			Peers:          peers,
			Transport:      via,
			Registry:       reg,
			Store:          store,
			HeartbeatEvery: hb,
			HeartbeatMiss:  2,
		})
		if err != nil {
			t.Fatal(err)
		}
		tr.Register(node)
		nodes[i] = node
	}
	for _, node := range nodes {
		node.Start()
	}
	// Each join triggers an async rebalance pass. Wait them out, so a
	// late pass cannot move a source the test has placed by hand.
	for _, node := range nodes {
		for node.rebalBusy.Load() != 0 {
			time.Sleep(100 * time.Microsecond)
		}
	}
	t.Cleanup(func() {
		for _, node := range nodes {
			node.Stop()
			_ = node.Registry().Close()
		}
	})
	return nodes, tr, store
}

// drain flushes every listed node's shard queues so Holds/Source reflect
// all prior IngestLine calls — ingest enqueues asynchronously by design.
func drain(t *testing.T, nodes ...*Node) {
	t.Helper()
	for _, n := range nodes {
		if err := n.Registry().Drain(); err != nil {
			t.Fatalf("drain %s: %v", n.Name(), err)
		}
	}
}

// pickOwnedBy finds a source id the ring assigns to member.
func pickOwnedBy(t *testing.T, r *Ring, member string) string {
	t.Helper()
	for i := 0; i < 100000; i++ {
		id := fmt.Sprintf("key-%s-%d", member, i)
		if r.Owner(id) == member {
			return id
		}
	}
	t.Fatalf("no key owned by %s in 100000 tries", member)
	return ""
}

func TestRouteForwardsToRingOwner(t *testing.T) {
	nodes, _, _ := testCluster(t, 2, 0)
	a, b := nodes[0], nodes[1]
	id := pickOwnedBy(t, a.Ring(), b.Name())
	if err := a.IngestLine("test", fmt.Sprintf("source=%s 1e9 2e8", id)); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	drain(t, a, b)
	if !b.Holds(id) {
		t.Fatal("ring owner did not receive the forwarded line")
	}
	if a.Holds(id) {
		t.Fatal("entry node kept a monitor for a source it forwarded")
	}
	if st := a.Status(); st.Forwards != 1 {
		t.Fatalf("forwards counter %d, want 1", st.Forwards)
	}
}

func TestOwnedWinsOverRing(t *testing.T) {
	nodes, _, _ := testCluster(t, 2, 0)
	a, b := nodes[0], nodes[1]
	// The monitor lives at a even though the ring says b.
	id := pickOwnedBy(t, a.Ring(), b.Name())
	if err := a.Registry().AttachSource(id, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := b.IngestLine("test", fmt.Sprintf("source=%s 1e9 2e8", id)); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	drain(t, a, b)
	// b is the ring owner but must locate the live holder instead of
	// creating a divergent fresh monitor: the sample lands on the attached
	// monitor and the source keeps exactly one owner. (A background
	// rebalance may legitimately move that monitor onto b afterwards.)
	if err := waitFor(3*time.Second, func() bool {
		sa, oka := a.Registry().Source(id)
		sb, okb := b.Registry().Source(id)
		if oka == okb {
			return false // unowned mid-migration, or divergent double-owned
		}
		if oka {
			return sa.Samples == 1
		}
		return sb.Samples == 1
	}); err != nil {
		sa, oka := a.Registry().Source(id)
		sb, okb := b.Registry().Source(id)
		t.Fatalf("want exactly one holder with the sample: a(ok=%v samples=%d) b(ok=%v samples=%d)",
			oka, sa.Samples, okb, sb.Samples)
	}
}

func TestMigrateMovesOwnershipAndState(t *testing.T) {
	nodes, _, _ := testCluster(t, 2, 0)
	a, b := nodes[0], nodes[1]
	id := pickOwnedBy(t, a.Ring(), a.Name())
	for i := 0; i < 10; i++ {
		if err := a.IngestLine("test", fmt.Sprintf("source=%s %g %g", id, 1e9+float64(i)*1e6, 2e8)); err != nil {
			t.Fatal(err)
		}
	}
	drain(t, a)
	if err := a.Migrate(context.Background(), id, b.Name()); err != nil {
		t.Fatalf("migrate: %v", err)
	}
	if a.Holds(id) || !b.Holds(id) {
		t.Fatalf("ownership after migrate: a=%v b=%v, want false/true", a.Holds(id), b.Holds(id))
	}
	st, _ := b.Registry().Source(id)
	if st.Samples != 10 {
		t.Fatalf("migrated monitor lost samples: %d, want 10", st.Samples)
	}
	// Lines at the origin now follow the release redirect.
	if err := a.IngestLine("test", fmt.Sprintf("source=%s 1e9 2e8", id)); err != nil {
		t.Fatal(err)
	}
	drain(t, b)
	st, _ = b.Registry().Source(id)
	if st.Samples != 11 {
		t.Fatalf("post-release line lost: %d samples, want 11", st.Samples)
	}
	if s := a.Status(); s.Migrations != 1 {
		t.Fatalf("origin migrations counter %d, want 1", s.Migrations)
	}
	if s := b.Status(); s.OwnerChanges != 1 {
		t.Fatalf("target owner-changes counter %d, want 1", s.OwnerChanges)
	}
}

// TestMigrateParityUnderLoad is the acceptance gate: a source migrated
// mid-stream must end with monitor state byte-for-byte identical to an
// unmigrated oracle fed the same samples. Run under -race it also vets
// the block-at-origin handoff for data races.
func TestMigrateParityUnderLoad(t *testing.T) {
	nodes, _, _ := testCluster(t, 2, 0)
	a, b := nodes[0], nodes[1]
	id := pickOwnedBy(t, a.Ring(), a.Name())

	const total = 400
	traces := makeTraces(42, 1, total)[0]

	migrated := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k, p := range traces {
			if k == total/2 {
				// Fire the migration while the stream is live; lines for
				// the source block at the origin until the release.
				go func() {
					defer close(migrated)
					if err := a.Migrate(context.Background(), id, b.Name()); err != nil {
						t.Errorf("migrate: %v", err)
					}
				}()
			}
			if err := a.IngestLine("test", fmt.Sprintf("source=%s %g %g", id, p[0], p[1])); err != nil {
				t.Errorf("ingest sample %d: %v", k, err)
				return
			}
		}
	}()
	wg.Wait()
	<-migrated

	if a.Holds(id) || !b.Holds(id) {
		t.Fatalf("ownership after live migration: a=%v b=%v", a.Holds(id), b.Holds(id))
	}
	got, err := b.Registry().MonitorState(id)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := aging.NewDualMonitor(selfTestMonitorConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range traces {
		oracle.Add(p[0], p[1])
	}
	want, err := oracle.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("migrated monitor state diverged from the single-process oracle")
	}
	st, _ := b.Registry().Source(id)
	if st.Samples != total {
		t.Fatalf("sample count %d, want %d", st.Samples, total)
	}
}

// TestMigrateNotHeld: migrating a source this node does not hold —
// never seen, or already handed off — moves nothing and says so.
func TestMigrateNotHeld(t *testing.T) {
	nodes, _, _ := testCluster(t, 2, 0)
	a, b := nodes[0], nodes[1]
	id := pickOwnedBy(t, a.Ring(), a.Name())
	if err := a.Migrate(context.Background(), id, b.Name()); !errors.Is(err, ErrNotHeld) {
		t.Fatalf("migrate of an unseen source: %v, want ErrNotHeld", err)
	}
	if err := a.IngestLine("test", fmt.Sprintf("source=%s 1e9 2e8", id)); err != nil {
		t.Fatal(err)
	}
	drain(t, a)
	if err := a.Migrate(context.Background(), id, b.Name()); err != nil {
		t.Fatalf("migrate: %v", err)
	}
	if err := a.Migrate(context.Background(), id, b.Name()); !errors.Is(err, ErrNotHeld) {
		t.Fatalf("second migrate of a handed-off source: %v, want ErrNotHeld", err)
	}
	if s := a.Status(); s.Migrations != 1 {
		t.Fatalf("migrations counted %d, want 1", s.Migrations)
	}
}

// gatedTransport holds every Handoff until release is closed, announcing
// each on entered first, so a test can act while a migration is in
// flight.
type gatedTransport struct {
	*MemTransport
	entered chan struct{}
	release chan struct{}
}

func (g *gatedTransport) Handoff(ctx context.Context, peer string, envelope []byte) error {
	g.entered <- struct{}{}
	<-g.release
	return g.MemTransport.Handoff(ctx, peer, envelope)
}

// TestMigrateInFlight: a second migration of a source whose handoff is
// still under way moves nothing and says so; the first one completes.
func TestMigrateInFlight(t *testing.T) {
	gate := &gatedTransport{entered: make(chan struct{}, 1), release: make(chan struct{})}
	nodes, _, _ := testClusterOver(t, 2, 0, func(mt *MemTransport) Transport {
		gate.MemTransport = mt
		return gate
	})
	a, b := nodes[0], nodes[1]
	id := pickOwnedBy(t, a.Ring(), a.Name())
	if err := a.IngestLine("test", fmt.Sprintf("source=%s 1e9 2e8", id)); err != nil {
		t.Fatal(err)
	}
	drain(t, a)
	first := make(chan error, 1)
	go func() { first <- a.Migrate(context.Background(), id, b.Name()) }()
	<-gate.entered
	if err := a.Migrate(context.Background(), id, b.Name()); !errors.Is(err, ErrMigrationInFlight) {
		t.Fatalf("migrate during a handoff: %v, want ErrMigrationInFlight", err)
	}
	close(gate.release)
	if err := <-first; err != nil {
		t.Fatalf("first migrate: %v", err)
	}
	if a.Holds(id) || !b.Holds(id) {
		t.Fatalf("ownership after migration: a=%v b=%v", a.Holds(id), b.Holds(id))
	}
}

func TestMigrateRollbackOnUnreachableTarget(t *testing.T) {
	nodes, _, _ := testCluster(t, 2, 0)
	a := nodes[0]
	id := pickOwnedBy(t, a.Ring(), a.Name())
	for i := 0; i < 5; i++ {
		if err := a.IngestLine("test", fmt.Sprintf("source=%s 1e9 2e8", id)); err != nil {
			t.Fatal(err)
		}
	}
	drain(t, a)
	if err := a.Migrate(context.Background(), id, "ghost"); err == nil {
		t.Fatal("migrate to an unreachable peer reported success")
	}
	if !a.Holds(id) {
		t.Fatal("rollback did not re-attach the source at the origin")
	}
	if err := a.IngestLine("test", fmt.Sprintf("source=%s 1e9 2e8", id)); err != nil {
		t.Fatalf("ingest after rollback: %v", err)
	}
	drain(t, a)
	st, _ := a.Registry().Source(id)
	if st.Samples != 6 {
		t.Fatalf("samples after rollback %d, want 6 — state was lost", st.Samples)
	}
	if s := a.Status(); s.HandoffFailures == 0 {
		t.Fatal("handoff failure not counted")
	}
}

func TestAdoptionRestoresFromStore(t *testing.T) {
	nodes, _, store := testCluster(t, 2, 0)
	a := nodes[0]
	id := pickOwnedBy(t, a.Ring(), a.Name())
	// A dead node's last snapshot: a monitor that has seen 7 samples.
	dead, err := aging.NewDualMonitor(selfTestMonitorConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		dead.Add(1e9+float64(i)*1e6, 2e8)
	}
	blob, err := dead.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	store.Put(id, blob)

	if err := a.IngestLine("test", fmt.Sprintf("source=%s 1e9 2e8", id)); err != nil {
		t.Fatal(err)
	}
	drain(t, a)
	st, ok := a.Registry().Source(id)
	if !ok || st.Samples != 8 {
		t.Fatalf("adopted source: ok=%v samples=%d, want 8 (7 restored + 1 live)", ok, st.Samples)
	}
	if s := a.Status(); s.AdoptionsRestore != 1 {
		t.Fatalf("adoptions counter %d, want 1", s.AdoptionsRestore)
	}
}

func TestHandleHandoffDuplicateAcks(t *testing.T) {
	nodes, _, _ := testCluster(t, 2, 0)
	b := nodes[1]
	id := pickOwnedBy(t, b.Ring(), b.Name())
	if err := b.IngestLine("test", fmt.Sprintf("source=%s 1e9 2e8", id)); err != nil {
		t.Fatal(err)
	}
	drain(t, b)
	blob, err := b.Registry().MonitorState(id)
	if err != nil {
		t.Fatal(err)
	}
	env, err := EncodeEnvelope(Envelope{Source: id, Origin: "node-0", Target: b.Name(), State: blob})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.HandleHandoff(env); err != nil {
		t.Fatalf("duplicate handoff must ack idempotently, got %v", err)
	}
}

func TestHandleHandoffRejectsCorruptEnvelope(t *testing.T) {
	nodes, _, _ := testCluster(t, 2, 0)
	if err := nodes[0].HandleHandoff([]byte("definitely not an envelope")); !errors.Is(err, ErrBadEnvelope) {
		t.Fatalf("corrupt handoff: %v, want ErrBadEnvelope", err)
	}
}

func TestHeartbeatFailoverAndRecovery(t *testing.T) {
	nodes, tr, _ := testCluster(t, 3, 10*time.Millisecond)
	a, b, c := nodes[0], nodes[1], nodes[2]
	tr.Unregister(b.Name())
	if err := waitFor(3*time.Second, func() bool {
		return !a.Ring().Has(b.Name()) && !c.Ring().Has(b.Name())
	}); err != nil {
		t.Fatalf("survivors did not mark the dead peer down: %v", err)
	}
	tr.Register(b)
	if err := waitFor(3*time.Second, func() bool {
		return a.Ring().Has(b.Name()) && c.Ring().Has(b.Name())
	}); err != nil {
		t.Fatalf("recovered peer not marked up: %v", err)
	}
}

func TestLeaveDrainsSources(t *testing.T) {
	nodes, _, _ := testCluster(t, 3, 0)
	a := nodes[0]
	// Give a a handful of owned sources.
	var owned []string
	for i := 0; len(owned) < 5 && i < 100000; i++ {
		id := fmt.Sprintf("drain-%d", i)
		if a.Ring().Owner(id) == a.Name() {
			if err := a.IngestLine("test", fmt.Sprintf("source=%s 1e9 2e8", id)); err != nil {
				t.Fatal(err)
			}
			owned = append(owned, id)
		}
	}
	drain(t, a)
	if err := a.Leave(context.Background()); err != nil {
		t.Fatalf("leave: %v", err)
	}
	for _, id := range owned {
		if a.Holds(id) {
			t.Fatalf("source %s still at the departed node", id)
		}
		if !nodes[1].Holds(id) && !nodes[2].Holds(id) {
			t.Fatalf("source %s lost during leave", id)
		}
	}
	for _, peer := range nodes[1:] {
		if peer.Ring().Has(a.Name()) {
			t.Fatalf("%s still has the departed node on its ring", peer.Name())
		}
	}
}

// TestHandoffRefusedWhileLeaving: a node that has begun leaving must
// reject inbound handoffs permanently, and the sender must roll the
// source back. Guards the leave-window race where a peer with a stale
// ring bounces a just-migrated source straight back to the departing
// node, stranding it there after Stop.
func TestHandoffRefusedWhileLeaving(t *testing.T) {
	nodes, _, _ := testCluster(t, 2, 0)
	a, b := nodes[0], nodes[1]
	id := pickOwnedBy(t, a.Ring(), a.Name())
	if err := a.IngestLine("test", fmt.Sprintf("source=%s 1e9 2e8", id)); err != nil {
		t.Fatal(err)
	}
	drain(t, a)
	b.leaving.Store(true)
	err := a.Migrate(context.Background(), id, b.Name())
	if !errors.Is(err, ErrLeaving) {
		t.Fatalf("migrate to a leaving node: %v, want ErrLeaving", err)
	}
	if !a.Holds(id) {
		t.Fatalf("source %s not rolled back to the sender", id)
	}
	if b.Holds(id) {
		t.Fatalf("source %s accepted by the leaving node", id)
	}
}

// TestMigrateRecordsTraceSpan: a completed handoff must leave one
// StageMigrate span on the configured tracer, attributed to the source.
func TestMigrateRecordsTraceSpan(t *testing.T) {
	tr := NewMemTransport()
	tracer := trace.New(trace.Config{SampleEvery: 1, SpanCapacity: 16})
	nodes := make([]*Node, 2)
	for i := range nodes {
		reg, err := ingest.NewRegistry(ingest.Config{
			Shards: 1, QueueSize: 16, Monitor: selfTestMonitorConfig(),
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Self:      fmt.Sprintf("node-%d", i),
			Peers:     []string{fmt.Sprintf("node-%d", 1-i)},
			Transport: tr,
			Registry:  reg,
		}
		if i == 0 {
			cfg.Tracer = tracer
		}
		node, err := NewNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tr.Register(node)
		nodes[i] = node
	}
	for _, n := range nodes {
		n.Start()
	}
	defer func() {
		for _, n := range nodes {
			n.Stop()
			_ = n.Registry().Close()
		}
	}()
	a, b := nodes[0], nodes[1]
	id := pickOwnedBy(t, a.Ring(), a.Name())
	if err := a.IngestLine("test", fmt.Sprintf("source=%s 1e9 2e8", id)); err != nil {
		t.Fatal(err)
	}
	drain(t, a)
	if err := a.Migrate(context.Background(), id, b.Name()); err != nil {
		t.Fatalf("migrate: %v", err)
	}
	found := 0
	for _, sp := range tracer.Spans() {
		if sp.Stage == trace.StageMigrate {
			found++
			if sp.Source != id {
				t.Errorf("migrate span attributed to %q, want %q", sp.Source, id)
			}
		}
	}
	if found != 1 {
		t.Fatalf("recorded %d migrate spans, want 1", found)
	}
}

// TestClusterEventsOnControlBus asserts that topology changes ride the
// same alert bus as detector verdicts: a migration publishes a
// "migrated" alert on the origin's bus and a peer departure publishes
// "node_down", each carrying the node names in From/To/Node.
func TestClusterEventsOnControlBus(t *testing.T) {
	nodes, _, _ := testCluster(t, 2, 0)
	a, b := nodes[0], nodes[1]
	sub := a.Registry().Alerts().Subscribe("test", 32)
	defer sub.Cancel()

	id := pickOwnedBy(t, a.Ring(), a.Name())
	if err := a.IngestLine("test", fmt.Sprintf("source=%s 1e9 2e8", id)); err != nil {
		t.Fatal(err)
	}
	drain(t, a)
	if err := a.Migrate(context.Background(), id, b.Name()); err != nil {
		t.Fatalf("migrate: %v", err)
	}
	a.HandleAnnounce(b.Name(), AnnounceLeave)

	var migrated, nodeDown *control.Alert
	deadline := time.After(3 * time.Second)
	for migrated == nil || nodeDown == nil {
		select {
		case al := <-sub.C():
			switch al.Kind {
			case control.KindMigrated:
				migrated = &al
			case control.KindNodeDown:
				nodeDown = &al
			}
		case <-deadline:
			t.Fatalf("bus alerts missing: migrated=%v node_down=%v", migrated, nodeDown)
		}
	}
	if migrated.Source != id || migrated.From != a.Name() || migrated.To != b.Name() {
		t.Errorf("migrated alert = %+v, want source=%s from=%s to=%s", migrated, id, a.Name(), b.Name())
	}
	if nodeDown.Source != b.Name() || nodeDown.Node != a.Name() {
		t.Errorf("node_down alert = %+v, want source=%s node=%s", nodeDown, b.Name(), a.Name())
	}
}
