package ingest

import (
	"time"

	transport "agingmf/internal/source"
)

// IngestColumns routes one columnar batch (the decoded form of a binary
// wire frame) to its source's shard as a single unit — the columnar
// counterpart of IngestBatch. Ownership of cb transfers to the registry
// on every call: the shard releases it back to the pool after folding
// the columns into the detectors, and an error return has already
// released it — the caller must not touch cb afterwards either way.
//
// The shard hands the columns straight to detect.MonitorSet.AddColumns
// — no per-sample dispatch, no row materialization — which is where the
// binary path's throughput comes from (see BenchmarkIngestBinary). A
// traced or flight-recorded source takes the same kernels, annotated, so
// observability does not switch the path; verdicts and detector state
// are byte-for-byte those of per-sample Ingest calls over the same
// values.
// Queueing semantics match IngestBatch: a full shard queue blocks the
// producer (or drops whole, counted, with DropWhenFull) — a frame is
// never split.
func (r *Registry) IngestColumns(cb *transport.ColumnarBatch) error {
	return r.ingestColumns(cb, r.tr.Sample())
}

// ingestColumns is IngestColumns with the frame's tracer sequence
// already drawn (a frame is one traced unit, like a text batch).
func (r *Registry) ingestColumns(cb *transport.ColumnarBatch, seq uint64) error {
	n := cb.Len()
	if n == 0 {
		cb.Release()
		return nil
	}
	// The wire supplies the source id raw; vet it like the text parser
	// does before it can become a registry key.
	if cb.Source == "" {
		cb.Release()
		return ErrNoSource
	}
	if err := validSource(cb.Source); err != nil {
		cb.Release()
		return err
	}
	// x-x is 0 exactly when x is finite (NaN and ±Inf both yield NaN,
	// and NaN != 0), so one fused check rejects every non-finite value.
	for i := 0; i < n; i++ {
		if d := cb.Free[i] - cb.Free[i] + cb.Swap[i] - cb.Swap[i]; d != 0 {
			cb.Release()
			return ErrBadSample
		}
	}
	// Same sender/closing protocol as Ingest; see the comment there.
	r.senders.Add(1)
	defer r.senders.Add(-1)
	if r.closing.Load() {
		r.dropN("shutdown", n)
		cb.Release()
		return ErrClosed
	}
	sh := r.shards[r.shardIndex(cb.Source)]
	msg := shardMsg{cols: cb}
	if seq != 0 {
		msg.seq, msg.enq = seq, time.Now().UnixNano()
	}
	if r.cfg.DropWhenFull {
		select {
		case sh.ch <- msg:
		default:
			r.dropN("queue_full", n)
			cb.Release()
			return ErrQueueFull
		}
	} else {
		select {
		case sh.ch <- msg:
		case <-r.stopc:
			r.dropN("shutdown", n)
			cb.Release()
			return ErrClosed
		}
	}
	sh.depthGauge.Set(float64(sh.depth.Add(1)))
	return nil
}

// handleColumns feeds one columnar batch into its source's detector set
// through the shared column path and returns the batch to the pool.
func (sh *shard) handleColumns(cb *transport.ColumnarBatch, seq uint64) {
	defer cb.Release()
	sh.handleCols(cb.Source, cb.Free, cb.Swap, seq)
}
