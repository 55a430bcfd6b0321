// Package control is the fleet control plane: the canonical Alert type
// every layer publishes, a non-blocking subscription bus that fans
// alerts out to bounded per-consumer queues, delivery sinks (JSONL,
// webhook), and the Rejuvenator — a controller that closes the loop from
// detector verdicts to proactive restarts under a fleet cost model.
//
// Before this package, alerts existed in four incompatible shapes
// (ingest's bus struct, detect's detector-labeled events, cluster
// heartbeat state, agingmon's report lines); nothing could consume a
// verdict programmatically. The canonical Alert unifies them: detectors,
// the ingest registry, the cluster membership layer and the rejuvenation
// controller all speak it.
package control

// Alert kinds published on the bus.
const (
	// KindJump is a detection alarm on one counter (a Hölder-volatility
	// jump, an entropy collapse, ... — the Detector field says which).
	KindJump = "jump"
	// KindRecalibrate records a detector re-anchoring its baseline after
	// a confirmed workload shift (adaptive detector); informational.
	KindRecalibrate = "recalibrate"
	// KindPhaseChange is an aging-phase transition.
	KindPhaseChange = "phase_change"
	// KindStall means a source went silent past the stall timeout.
	KindStall = "stall"
	// KindResume means a stalled source produced a sample again.
	KindResume = "resume"

	// Cluster membership events share the bus so one subscriber sees the
	// whole fleet: detector verdicts and the topology they ride on.

	// KindNodeUp means a cluster peer (re)joined the membership.
	KindNodeUp = "node_up"
	// KindNodeDown means a cluster peer missed its heartbeat budget.
	KindNodeDown = "node_down"
	// KindMigrated means a source's monitor state moved between nodes
	// (From/To name the nodes).
	KindMigrated = "migrated"
	// KindAdopted means a dead peer's source was restored from its last
	// snapshot by a survivor (From names the dead node, To the adopter).
	KindAdopted = "adopted"

	// KindRejuvenate closes the loop: the Rejuvenator actuated a
	// proactive restart of Source (Detector carries the policy name).
	KindRejuvenate = "rejuvenate"
)

// Alert is one fleet event — the control plane's single currency. It
// carries no wall-clock timestamp of its own — alerts derive
// deterministically from the sample stream, which is what makes the
// daemon's verdicts comparable byte-for-byte with a single-process run;
// sinks that need a timestamp add their own (the JSONL sink's event
// envelope has one).
//
// Field order is load-bearing: encoding/json marshals struct fields in
// declaration order and the webhook payload is pinned byte-for-byte by
// golden tests, so new fields append at the end with omitempty.
type Alert struct {
	// Source is the machine the alert concerns (or the node, for
	// cluster membership alerts).
	Source string `json:"source"`
	// Kind is one of the Kind* constants.
	Kind string `json:"kind"`
	// Detector labels jump/recalibrate alerts with the emitting detector
	// ("holder", "entropy", "adaptive") and rejuvenate alerts with the
	// triggering policy; empty for source-level alerts (stall, resume,
	// phase_change) and cluster alerts.
	Detector string `json:"detector,omitempty"`
	// Counter attributes jump alerts to free-memory or used-swap.
	Counter string `json:"counter,omitempty"`
	// Sample is the per-source sample index the alert fired at.
	Sample int `json:"sample,omitempty"`
	// Volatility and Score describe a jump alarm.
	Volatility float64 `json:"volatility,omitempty"`
	Score      float64 `json:"score,omitempty"`
	// From and To describe a phase change or a migration/adoption
	// (node names).
	From string `json:"from,omitempty"`
	To   string `json:"to,omitempty"`
	// GapMillis is the observed silence of a stall alert.
	GapMillis int64 `json:"gap_ms,omitempty"`
	// Node is the cluster member a membership alert concerns, and the
	// arc a rejuvenate alert was staggered within. Appended after the
	// legacy fields: pre-existing alert kinds never set it, keeping
	// their wire bytes unchanged.
	Node string `json:"node,omitempty"`
}
