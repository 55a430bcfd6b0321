package cluster

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"agingmf/internal/aging"
	transport "agingmf/internal/source"
)

// colBatch builds a pooled columnar batch over a pair run.
func colBatch(id string, pairs [][2]float64) *transport.ColumnarBatch {
	cb := transport.AcquireColumnarBatch()
	cb.Source = id
	for _, p := range pairs {
		cb.Free = append(cb.Free, p[0])
		cb.Swap = append(cb.Swap, p[1])
	}
	return cb
}

// TestIngestColumnsRoutesLocally pins the fast path: a columnar batch
// for a locally owned source lands on the local registry's batch-first
// kernels, no forwarding.
func TestIngestColumnsRoutesLocally(t *testing.T) {
	nodes, _, _ := testCluster(t, 2, 0)
	a := nodes[0]
	id := pickOwnedBy(t, a.Ring(), a.Name())
	traces := makeTraces(7, 1, 64)[0]
	if err := a.IngestColumns(colBatch(id, traces)); err != nil {
		t.Fatalf("ingest columns: %v", err)
	}
	drain(t, a)
	st, ok := a.Registry().Source(id)
	if !ok || st.Samples != 64 {
		t.Fatalf("local columnar delivery: ok=%v %+v", ok, st)
	}
	if s := a.Status(); s.Forwards != 0 {
		t.Fatalf("forwards counter %d, want 0", s.Forwards)
	}
}

// TestIngestColumnsForwardsToOwner pins the remote path: a columnar
// batch for a peer-owned source is re-rendered as a lossless text batch
// line and forwarded — the samples land on the owner bit-exactly.
func TestIngestColumnsForwardsToOwner(t *testing.T) {
	nodes, _, _ := testCluster(t, 2, 0)
	a, b := nodes[0], nodes[1]
	id := pickOwnedBy(t, a.Ring(), b.Name())
	traces := makeTraces(9, 1, 48)[0]
	if err := a.IngestColumns(colBatch(id, traces)); err != nil {
		t.Fatalf("ingest columns: %v", err)
	}
	drain(t, a, b)
	if a.Holds(id) {
		t.Fatal("entry node kept a monitor for a forwarded columnar batch")
	}
	if st, ok := b.Registry().Source(id); !ok || st.Samples != 48 {
		t.Fatalf("owner-side status: ok=%v %+v", ok, st)
	}
	if s := a.Status(); s.Forwards != 1 {
		t.Fatalf("forwards counter %d, want 1", s.Forwards)
	}
	// Bit-exactness across the re-rendered wire: the owner's monitor
	// equals an oracle fed the original float64 columns.
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
		t.Fatal("forwarded columnar batch lost precision on the text wire")
	}
}

// TestIngestColumnsMigrateParityUnderLoad migrates a source while its
// columnar stream is live: batches block at the origin during the
// handoff (never buffer, never split), and the migrated monitor ends
// byte-for-byte identical to an unmigrated oracle — in-flight batch
// state survives the move.
func TestIngestColumnsMigrateParityUnderLoad(t *testing.T) {
	nodes, _, _ := testCluster(t, 2, 0)
	a, b := nodes[0], nodes[1]
	id := pickOwnedBy(t, a.Ring(), a.Name())

	const total, chunk = 512, 16 // chunk divides total/2: migration fires mid-stream
	traces := makeTraces(41, 1, total)[0]

	migrated := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for off := 0; off < total; off += chunk {
			if off == total/2 {
				go func() {
					defer close(migrated)
					// The registry creates the source on its shard
					// goroutine: drain so the batches already sent have
					// landed and the source is held when the handoff
					// starts.
					if err := a.Registry().Drain(); err != nil {
						t.Errorf("drain: %v", err)
						return
					}
					if err := a.Migrate(context.Background(), id, b.Name()); err != nil {
						t.Errorf("migrate: %v", err)
					}
				}()
			}
			if err := a.IngestColumns(colBatch(id, traces[off:off+chunk])); err != nil {
				t.Errorf("ingest batch at %d: %v", off, err)
				return
			}
		}
	}()
	wg.Wait()
	<-migrated
	drain(t, a, b)

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
