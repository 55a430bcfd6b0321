package ingest

import (
	"agingmf/internal/obs"
	"agingmf/internal/resilience"
)

// Metric families of the ingestion daemon. Everything is registered
// lazily through the nil-safe obs API, so an un-instrumented registry
// (Config.Obs == nil) pays only nil checks on the hot path.
const (
	metricSamples    = "agingmf_ingest_samples_total"
	metricDropped    = "agingmf_ingest_dropped_total"
	metricBadLines   = "agingmf_ingest_bad_lines_total"
	metricBadFrames  = "agingmf_ingest_bad_frames_total"
	metricSources    = "agingmf_ingest_sources"
	metricQueueDepth = "agingmf_ingest_queue_depth"
	metricHandleSec  = "agingmf_ingest_handle_seconds"
	metricAlerts     = "agingmf_ingest_alerts_total"
	// metricAlertDropsFleet is the control-plane family the registry's
	// bus counts slow-subscriber drops on.
	metricAlertDropsFleet = "agingmf_alert_drops_total"
	metricConns           = "agingmf_ingest_connections_total"
	metricConnsOpen       = "agingmf_ingest_open_connections"
	metricSnapshots       = "agingmf_ingest_snapshots_total"
	// metricSnapshotCorrupt is registered on demand by the quarantine
	// path (server startup), not in newMetrics — the healthy case never
	// creates the family.
	metricSnapshotCorrupt = "agingmf_snapshot_corrupt_total"
)

// handleBuckets spans the per-sample shard work (route + DualMonitor.Add
// + status update), which is ~1 µs amortized.
var handleBuckets = []float64{
	500e-9, 1e-6, 2.5e-6, 5e-6, 10e-6, 25e-6, 100e-6, 1e-3, 10e-3,
}

// metrics holds the ingest instruments. The zero value (all nil) is fully
// functional: every update is a no-op.
type metrics struct {
	samples         *obs.CounterVec // by shard
	dropped         *obs.CounterVec // by reason
	badLines        *obs.Counter
	badFrames       *obs.CounterVec // by reason
	sources         *obs.Gauge
	queueDepth      *obs.GaugeVec // by shard
	handleSec       *obs.Histogram
	alerts          *obs.CounterVec // by kind
	alertDropsFleet *obs.CounterVec // by sink
	conns           *obs.CounterVec // by proto
	connsOpen       *obs.Gauge
	snapshots       *obs.Counter
	res             resilience.Metrics
}

// newMetrics registers the ingest families on reg; a nil registry yields
// the zero (no-op) set.
func newMetrics(reg *obs.Registry) metrics {
	return metrics{
		samples: reg.CounterVec(metricSamples,
			"Samples accepted by the ingestion registry.", "shard"),
		dropped: reg.CounterVec(metricDropped,
			"Samples dropped before reaching a monitor.", "reason"),
		badLines: reg.Counter(metricBadLines,
			"Malformed wire lines rejected by the parser."),
		badFrames: reg.CounterVec(metricBadFrames,
			"Binary wire frames rejected whole, by reason.", "reason"),
		sources: reg.Gauge(metricSources,
			"Sources currently tracked by the registry."),
		queueDepth: reg.GaugeVec(metricQueueDepth,
			"Samples queued ahead of each shard goroutine.", "shard"),
		handleSec: reg.Histogram(metricHandleSec,
			"Per-sample shard work: monitor add, status update, alerts.",
			handleBuckets),
		alerts: reg.CounterVec(metricAlerts,
			"Alerts published on the alert bus.", "kind"),
		alertDropsFleet: reg.CounterVec(metricAlertDropsFleet,
			"Alerts dropped by a saturated subscriber queue, by sink.", "sink"),
		conns: reg.CounterVec(metricConns,
			"Ingest connections accepted.", "proto"),
		connsOpen: reg.Gauge(metricConnsOpen,
			"Ingest connections currently open."),
		snapshots: reg.Counter(metricSnapshots,
			"State snapshots written."),
		res: resilience.NewMetrics(reg),
	}
}
