package ingest

import (
	"errors"
	"fmt"

	"agingmf/internal/detect"
	"agingmf/internal/obs"
	"agingmf/internal/trace"
)

// ErrSourceExists reports an AttachSource collision: the registry already
// holds a live monitor for the source.
var ErrSourceExists = errors.New("ingest: source already exists")

// DetachSource removes one source from the registry and returns its
// serialized monitor state plus its flight-recorder tail — the payload of
// a cluster migration envelope. The detach runs on the source's shard
// goroutine, so it lands on a sample boundary: every sample accepted
// before the detach is folded into the returned state, and no sample can
// slip into the monitor afterwards. Subsequent samples for the id would
// lazily create a fresh monitor, so callers gate ingestion for the
// source (the cluster node blocks its lines) until it is attached
// elsewhere or re-attached here.
func (r *Registry) DetachSource(id string) ([]byte, []trace.Record, error) {
	if _, ok := r.byID.Load(id); !ok {
		return nil, nil, fmt.Errorf("%w: %q", ErrUnknownSource, id)
	}
	var (
		blob []byte
		recs []trace.Record
		err  error
	)
	werr := r.withShard(r.shards[r.shardIndex(id)], func(sh *shard) {
		src, ok := sh.sources[id]
		if !ok {
			err = fmt.Errorf("%w: %q", ErrUnknownSource, id)
			return
		}
		blob, err = src.mon.SaveState()
		if err != nil {
			return
		}
		recs = src.fr.Snapshot()
		src.wd.Stop()
		delete(sh.sources, id)
		r.byID.Delete(id)
		r.met.sources.Set(float64(r.nsources.Add(-1)))
	})
	if werr != nil {
		return nil, nil, werr
	}
	if err != nil {
		return nil, nil, err
	}
	r.cfg.Events.Info("ingest_source_detached", obs.Fields{"source": id})
	return blob, recs, nil
}

// AttachSource installs a source from a SaveState blob (or fresh, when
// state is empty) — the receiving side of a migration and the
// restore-from-last-snapshot leg of dead-node adoption. The detector set
// resumes exactly where the blob stopped — every detector's state
// travels byte-identically in the envelope — so verdicts after the
// attach are byte-for-byte what the origin would have produced. recs
// seeds the source's flight recorder with the tail that travelled in the
// envelope. Fails with ErrSourceExists when the source is already live
// here (the caller lost a benign creation race) and respects
// Config.MaxSources.
func (r *Registry) AttachSource(id string, state []byte, recs []trace.Record) error {
	if err := validSource(id); err != nil {
		return err
	}
	var (
		mon *detect.MonitorSet
		err error
	)
	if len(state) == 0 {
		mon, err = detect.New(r.cfg.Detectors, r.cfg.DetectorConfig())
	} else {
		mon, err = detect.RestoreMonitorSet(state)
	}
	if err != nil {
		return fmt.Errorf("ingest: attach %q: %w", id, err)
	}
	var (
		aerr     error
		attached int64
	)
	werr := r.withShard(r.shards[r.shardIndex(id)], func(sh *shard) {
		if _, exists := sh.sources[id]; exists {
			aerr = fmt.Errorf("%w: %q", ErrSourceExists, id)
			return
		}
		if !r.reserveSource() {
			aerr = fmt.Errorf("ingest: attach %q: source cap %d reached", id, r.cfg.MaxSources)
			return
		}
		// Read the restored monitor only inside the shard callback: the
		// moment attachSource publishes it, the shard goroutine may fold
		// new samples into it.
		src := r.attachSource(sh, id, mon)
		attached = int64(mon.SamplesSeen())
		src.samples.Store(attached)
		src.jumps.Store(int64(mon.Jumps()))
		if src.fr != nil && len(recs) > 0 {
			src.fr.Append(recs)
		}
	})
	if werr != nil {
		return werr
	}
	if aerr != nil {
		return aerr
	}
	r.cfg.Events.Info("ingest_source_attached", obs.Fields{
		"source": id, "samples": attached,
	})
	return nil
}
