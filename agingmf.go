package agingmf

import (
	"io"
	"math/rand"

	"agingmf/internal/aging"
	"agingmf/internal/changepoint"
	"agingmf/internal/cluster"
	"agingmf/internal/collector"
	"agingmf/internal/control"
	"agingmf/internal/detect"
	"agingmf/internal/dsp"
	"agingmf/internal/fractal"
	"agingmf/internal/gen"
	"agingmf/internal/holder"
	"agingmf/internal/ingest"
	"agingmf/internal/memsim"
	"agingmf/internal/multifractal"
	"agingmf/internal/obs"
	"agingmf/internal/rejuv"
	"agingmf/internal/resilience"
	"agingmf/internal/series"
	"agingmf/internal/trace"
	"agingmf/internal/workload"
)

// Time-series primitives.
type (
	// Series is a uniformly sampled time series.
	Series = series.Series
	// Window is a view into a series.
	Window = series.Window
)

// Series constructors and codecs.
var (
	// NewSeries builds a series with explicit timing metadata.
	NewSeries = series.New
	// SeriesFromValues wraps raw values with 1-second sampling.
	SeriesFromValues = series.FromValues
	// ReadSeriesCSV parses the CSV format written by WriteSeriesCSV.
	ReadSeriesCSV = series.ReadCSV
	// WriteSeriesCSV exports one or more series as CSV.
	WriteSeriesCSV = series.WriteCSV
)

// The aging monitor — the paper's primary contribution.
type (
	// Monitor is the online multifractal aging detector.
	Monitor = aging.Monitor
	// MonitorConfig parameterizes the Monitor.
	MonitorConfig = aging.Config
	// Jump is a detected Hölder-volatility jump.
	Jump = aging.Jump
	// Phase is the monitor's aging assessment.
	Phase = aging.Phase
	// AnalysisResult is the offline batch analysis of a trace.
	AnalysisResult = aging.AnalysisResult
	// DetectorKind selects the volatility jump detector.
	DetectorKind = aging.DetectorKind
)

// PhaseHealthy is the aging phase before any volatility jump.
const PhaseHealthy = aging.PhaseHealthy

// Jump detectors.
const (
	DetectCUSUM       = aging.DetectCUSUM
	DetectPageHinkley = aging.DetectPageHinkley
	DetectEWMA        = aging.DetectEWMA
)

// Monitor constructors.
var (
	// NewMonitor creates an online aging monitor.
	NewMonitor = aging.NewMonitor
	// DefaultMonitorConfig returns the experiment-standard settings.
	DefaultMonitorConfig = aging.DefaultConfig
	// Analyze batch-analyzes a complete counter series.
	Analyze = aging.Analyze
	// RestoreMonitor reconstructs a monitor from a Monitor.SaveState
	// snapshot, resuming exactly where it stopped (agents survive
	// restarts without re-running the warmup).
	RestoreMonitor = aging.RestoreMonitor
)

// Dual-counter monitoring (the paper instruments both free memory and
// used swap) and the hybrid crash predictor extension.
type (
	// DualMonitor runs one Monitor per instrumented counter.
	DualMonitor = aging.DualMonitor
	// DualJump attributes a jump to a counter.
	DualJump = aging.DualJump
	// CounterKind identifies an instrumented counter.
	CounterKind = aging.CounterKind
	// CrashPredictor combines the monitor with trend time-to-exhaustion.
	CrashPredictor = aging.CrashPredictor
	// PredictorConfig parameterizes the CrashPredictor.
	PredictorConfig = aging.PredictorConfig
	// Prediction is the predictor's current assessment.
	Prediction = aging.Prediction
)

// Dual-monitor and predictor constructors.
var (
	NewDualMonitor         = aging.NewDualMonitor
	RestoreDualMonitor     = aging.RestoreDualMonitor
	NewCrashPredictor      = aging.NewCrashPredictor
	DefaultPredictorConfig = aging.DefaultPredictorConfig
)

// Prior-work baseline detectors.
type (
	// TrendDetector extrapolates resource exhaustion from a fitted trend.
	TrendDetector = aging.TrendDetector
	// TrendConfig parameterizes the trend baseline.
	TrendConfig = aging.TrendConfig
	// TrendWarning is an exhaustion warning.
	TrendWarning = aging.TrendWarning
)

// Baseline constructors.
var (
	NewTrendDetector   = aging.NewTrendDetector
	DefaultTrendConfig = aging.DefaultTrendConfig
)

// HolderConfig parameterizes the pointwise Hölder oscillation estimator.
type HolderConfig = holder.Config

// Hölder estimator functions.
var (
	// OscillationTrajectory estimates the pointwise Hölder exponent by
	// the oscillation method.
	OscillationTrajectory = holder.Oscillation
	// WaveletLeaderTrajectory estimates it from db4 wavelet leaders.
	WaveletLeaderTrajectory = holder.WaveletLeader
	// DefaultHolderConfig returns the standard radius ladder.
	DefaultHolderConfig = holder.DefaultConfig
	// HistogramSpectrum estimates f(alpha) by the direct histogram method.
	HistogramSpectrum = holder.HistogramSpectrum
	// ModalAlpha returns the spectrum's peak location.
	ModalAlpha = holder.ModalAlpha
)

// HurstEstimate is a global (monofractal) Hurst-exponent estimation
// result.
type HurstEstimate = fractal.HurstEstimate

// Hurst estimator functions.
var (
	HurstRS          = fractal.HurstRS
	DFA              = fractal.DFA
	Higuchi          = fractal.Higuchi
	HurstPeriodogram = fractal.HurstPeriodogram
)

// Multifractal analysis.
type (
	// MFDFAConfig parameterizes multifractal DFA.
	MFDFAConfig = multifractal.Config
	// MFDFAResult holds h(q), tau(q) and the singularity spectrum.
	MFDFAResult = multifractal.Result
	// Spectrum is the singularity spectrum f(alpha).
	Spectrum = multifractal.Spectrum
)

// Multifractal functions.
var (
	MFDFA              = multifractal.MFDFA
	DefaultMFDFAConfig = multifractal.DefaultConfig
	StructureFunction  = multifractal.StructureFunction
	ZetaConcavity      = multifractal.ZetaConcavity
	WaveletLeadersMF   = multifractal.WaveletLeaders
)

// ChangeAlarm is a change detected by an online chart such as
// NewEWMAChart's.
type ChangeAlarm = changepoint.Alarm

// NewEWMAChart builds an online EWMA change chart.
var NewEWMAChart = changepoint.NewEWMAChart

// WelchPSD returns the variance-reduced Welch spectral estimate.
var WelchPSD = dsp.WelchPSD

// Synthetic signal generators (estimator validation and workloads).
var (
	FBM                   = gen.FBM
	FGNHosking            = gen.FGNHosking
	FGNDaviesHarte        = gen.FGNDaviesHarte
	LognormalCascadeNoise = gen.LognormalCascadeNoise
	Shuffle               = gen.Shuffle
)

// Simulated machine substrate.
type (
	// Machine is the simulated OS memory subsystem.
	Machine = memsim.Machine
	// MachineConfig describes the simulated hardware.
	MachineConfig = memsim.Config
	// Counters is a snapshot of the machine's observable state.
	Counters = memsim.Counters
	// ProcSpec describes a simulated process's memory behaviour.
	ProcSpec = memsim.ProcSpec
	// ProcInfo is a process snapshot.
	ProcInfo = memsim.ProcInfo
	// CrashKind classifies machine failures.
	CrashKind = memsim.CrashKind
)

// CrashNone is the crash kind of a machine that has not failed.
const CrashNone = memsim.CrashNone

// Machine constructors.
var (
	NewMachine           = memsim.New
	DefaultMachineConfig = memsim.DefaultConfig
)

// Workload generation.
type (
	// Driver binds a machine to a load pattern.
	Driver = workload.Driver
	// WorkloadConfig parameterizes the load driver.
	WorkloadConfig = workload.DriverConfig
	// LoadSource modulates load intensity over time.
	LoadSource = workload.Source
)

// Workload constructors.
var (
	NewDriver          = workload.NewDriver
	DefaultWorkload    = workload.DefaultDriverConfig
	NewAggregateSource = workload.NewAggregateSource
	NewCascadeSource   = workload.NewCascadeSource
	NewReplaySource    = workload.NewReplaySource
	NewDiurnalSource   = workload.NewDiurnalSource
)

// Counter collection.
type (
	// Trace is a recorded monitoring session.
	Trace = collector.Trace
	// CollectConfig parameterizes a collection session.
	CollectConfig = collector.Config
)

// Fleet collection (batch run-to-crash studies).
type (
	// FleetConfig describes a seeded batch of identical runs.
	FleetConfig = collector.FleetConfig
	// FleetRun is one completed fleet run.
	FleetRun = collector.FleetRun
)

// Collector functions. RunFleet takes a context.Context: cancelling it
// stops the campaign between runs (and interrupts in-flight collections),
// and with FleetConfig.CheckpointDir set a later identical call resumes
// from the completed seeds.
var (
	Collect        = collector.Collect
	DefaultCollect = collector.DefaultConfig
	RunFleet       = collector.RunFleet
)

// Resilience: retry shapes and stall watchdogs (see internal/resilience).
// Everything is nil-safe: a zero ResilienceMetrics is a valid no-op
// instrument set and a nil *Watchdog ignores all calls.
type (
	// RetryConfig shapes a bounded retry (attempts, backoff, jitter).
	RetryConfig = resilience.RetryConfig
	// ResilienceMetrics bundles the retry/watchdog/panic instruments.
	ResilienceMetrics = resilience.Metrics
	// Watchdog fires when no sample arrives within a deadline.
	Watchdog = resilience.Watchdog
)

// Resilience functions.
var (
	// NewWatchdog arms a stall watchdog (non-positive timeout disables).
	NewWatchdog = resilience.NewWatchdog
	// NewResilienceMetrics registers the resilience families on a registry.
	NewResilienceMetrics = resilience.NewMetrics
)

// Pluggable detector suite (internal/detect): the per-source MonitorSet
// the registry runs — N detectors side by side over one sample stream,
// each with its own verdicts, alert labels and gob state.
type (
	// DetectorSuiteConfig parameterizes every detector in a MonitorSet.
	DetectorSuiteConfig = detect.Config
	// EntropyDetectorConfig parameterizes the sample-entropy detector.
	EntropyDetectorConfig = detect.EntropyConfig
	// AdaptiveDetectorConfig parameterizes the workload-adaptive detector.
	AdaptiveDetectorConfig = detect.AdaptiveConfig
)

// ParseDetectorKinds parses a comma-separated detector list ("" means
// holder only), rejecting unknown and duplicate names.
var ParseDetectorKinds = detect.ParseKinds

// Fleet ingestion: the serving layer behind cmd/agingd. A sharded
// registry routes "timestamp free swap" wire samples from many machines
// into per-source detector sets (single-writer shards, no per-sample
// locks), fans jump/phase/stall alerts out on a bus, and persists
// snapshots so a restarted daemon resumes every source.
type (
	// IngestSample is one parsed wire observation.
	IngestSample = ingest.Sample
	// IngestConfig parameterizes the sharded registry.
	IngestConfig = ingest.Config
	// IngestRegistry routes samples to per-source monitors.
	IngestRegistry = ingest.Registry
	// IngestSourceStatus is the externally visible state of one source.
	IngestSourceStatus = ingest.SourceStatus
	// IngestShardStat is one shard's accounting snapshot.
	IngestShardStat = ingest.ShardStat
	// IngestServer is the daemon: registry + TCP/HTTP transports.
	IngestServer = ingest.Server
	// IngestServerConfig parameterizes the daemon.
	IngestServerConfig = ingest.ServerConfig
	// IngestSelfTestConfig parameterizes the end-to-end self-test.
	IngestSelfTestConfig = ingest.SelfTestConfig
	// IngestSelfTestReport is the self-test outcome.
	IngestSelfTestReport = ingest.SelfTestReport
	// BinaryIngestSelfTestConfig parameterizes the binary-wire self-test.
	BinaryIngestSelfTestConfig = ingest.BinarySelfTestConfig
	// BinaryIngestSelfTestReport is the binary-wire self-test outcome.
	BinaryIngestSelfTestReport = ingest.BinarySelfTestReport
	// IngestBatch is a run of samples from one source, sent as one
	// "batch;" wire line and one shard handoff.
	IngestBatch = ingest.Batch
)

// Ingestion functions.
var (
	// ParseIngestLine parses one wire line ("free,swap", "free swap",
	// "ts free swap", each optionally prefixed "source=ID").
	ParseIngestLine = ingest.ParseLine
	// FormatIngestLine renders a sample in canonical wire form.
	FormatIngestLine = ingest.FormatLine
	// ParseIngestBatch parses one "batch;" wire line.
	ParseIngestBatch = ingest.ParseBatch
	// IsIngestBatchLine reports whether a wire line is batch-framed.
	IsIngestBatchLine = ingest.IsBatchLine
	// NewIngestServer builds the daemon (call Start, then Shutdown).
	NewIngestServer = ingest.NewServer
	// RunIngestSelfTest drives simulated machines through a live server
	// over real sockets and verifies zero loss and monitor parity.
	RunIngestSelfTest = ingest.RunSelfTest
	// RunBinaryIngestSelfTest streams binary columnar frames through a
	// live server at full rate and verifies zero loss, zero rejects and
	// row-path parity, reporting sustained throughput.
	RunBinaryIngestSelfTest = ingest.RunBinarySelfTest
)

// Unified control plane (internal/control): the canonical fleet Alert,
// the typed subscription bus every layer publishes verdicts on (ingest
// detectors, cluster topology changes, the rejuvenation controller),
// and the closed-loop Rejuvenator that turns those alerts into
// policy-gated restarts.
type (
	// Alert is the canonical control-plane event.
	Alert = control.Alert
	// AlertBus fans alerts out to bounded subscriber queues.
	AlertBus = control.Bus
	// AlertSubscription is one consumer's bounded alert queue.
	AlertSubscription = control.Subscription
	// AlertWebhookConfig parameterizes the webhook alert sink.
	AlertWebhookConfig = control.WebhookConfig
	// Rejuvenator is the fleet rejuvenation controller: it consumes
	// alerts, drives one policy per source, and actuates restarts under
	// anti-affinity staggering and a rolling cost budget.
	Rejuvenator = control.Rejuvenator
	// RejuvenatorConfig parameterizes a Rejuvenator.
	RejuvenatorConfig = control.RejuvenatorConfig
	// RejuvenatorStatus is the /api/rejuv document.
	RejuvenatorStatus = control.RejuvStatus
	// RejuvenatorSourceStatus is one source's controller state.
	RejuvenatorSourceStatus = control.RejuvSourceStatus
	// Actuator executes a rejuvenation (restart) of one source.
	Actuator = control.Actuator
	// ActuatorFunc adapts a function to the Actuator interface.
	ActuatorFunc = control.ActuatorFunc
	// DryRunActuator logs each rejuvenation instead of executing it.
	DryRunActuator = control.DryRunActuator
	// RejuvenationPolicyFactory builds one source's policy instance.
	RejuvenationPolicyFactory = control.PolicyFactory
)

// Alert kinds published on the control bus.
const (
	AlertKindJump   = control.KindJump
	AlertKindResume = control.KindResume
)

// Control-plane functions.
var (
	// NewAlertBus builds a standalone control bus (the ingest registry
	// owns one already; see IngestRegistry.Alerts).
	NewAlertBus = control.NewBus
	// AlertJSONLSink drains a subscription into JSONL alert events.
	AlertJSONLSink = control.JSONLSink
	// AlertWebhookSink POSTs each alert to a webhook with retries.
	AlertWebhookSink = control.WebhookSink
	// NewRejuvenator builds the fleet rejuvenation controller.
	NewRejuvenator = control.NewRejuvenator
	// ParseRejuvenationPolicy parses a -rejuv-policy spec:
	// "none", "periodic:<samples>" or "phase:<phase>[:<min-uptime>]".
	ParseRejuvenationPolicy = control.ParsePolicy
	// PhaseChangeAlert builds a phase-transition Alert.
	PhaseChangeAlert = control.PhaseChange
)

// Clustered ingestion (internal/cluster): multiple agingd nodes share a
// fleet by consistent-hash routing over a membership ring, hand sources
// off live with byte-exact monitor state (acquire/ack/release), and
// adopt a dead node's sources from its last snapshot in a shared store.
type (
	// ClusterConfig parameterizes a cluster node.
	ClusterConfig = cluster.Config
	// ClusterNode is one cluster member wrapping an IngestRegistry.
	ClusterNode = cluster.Node
	// ClusterRing is the consistent-hash routing ring.
	ClusterRing = cluster.Ring
	// ClusterTransport moves cluster traffic between nodes.
	ClusterTransport = cluster.Transport
	// ClusterHTTPTransport speaks the /cluster/* HTTP protocol.
	ClusterHTTPTransport = cluster.HTTPTransport
	// ClusterStateStore is the shared last-snapshot shelf for adoption.
	ClusterStateStore = cluster.StateStore
	// ClusterStatus is the /api/cluster document.
	ClusterStatus = cluster.Status
	// ClusterMemberStatus is one member's health in ClusterStatus.
	ClusterMemberStatus = cluster.MemberStatus
	// ClusterSelfTestConfig parameterizes the cluster self-test campaign.
	ClusterSelfTestConfig = cluster.SelfTestConfig
	// ClusterSelfTestResult is the campaign outcome.
	ClusterSelfTestResult = cluster.SelfTestResult
)

// Clustering functions.
var (
	// NewClusterNode builds a cluster member (call Start; Stop/Leave/Halt
	// to end it).
	NewClusterNode = cluster.NewNode
	// RunClusterSelfTest drives a multi-node in-process cluster through
	// kill/restart/rebalance churn and verifies zero drops and zero
	// detector-state parity mismatches against a single-process oracle.
	RunClusterSelfTest = cluster.RunSelfTest
)

// Pipeline tracing and the flight recorder (internal/trace). "Pipeline"
// distinguishes these from the collector's memory-usage Trace.
type (
	// PipelineTracer records sampled spans through the ingest hot path.
	PipelineTracer = trace.Tracer
	// PipelineSpan is one recorded stage timing.
	PipelineSpan = trace.Span
	// PipelineStage identifies a pipeline stage (parse, queue, detect...).
	PipelineStage = trace.Stage
	// FlightRecord is one annotated sample: value, score, phase, verdict
	// and stage timings.
	FlightRecord = trace.Record
)

// ParseTraceSampleRate parses "0", "N" or "1/N" -trace-sample values.
var ParseTraceSampleRate = trace.ParseSampleRate

// Rejuvenation policies and evaluation.
type (
	// RejuvenationPolicy decides when to proactively restart.
	RejuvenationPolicy = rejuv.Policy
	// PeriodicPolicy restarts on a fixed schedule.
	PeriodicPolicy = rejuv.PeriodicPolicy
	// RejuvenationOutcome summarizes a policy evaluation.
	RejuvenationOutcome = rejuv.Outcome
	// RejuvenationEvalConfig parameterizes the evaluation.
	RejuvenationEvalConfig = rejuv.EvalConfig
	// HuangModel is the FTCS 1995 analytic availability model.
	HuangModel = rejuv.HuangModel
	// CostModel prices policy outcomes.
	CostModel = rejuv.CostModel
)

// Rejuvenation functions.
var (
	NewPeriodicPolicy       = rejuv.NewPeriodicPolicy
	OptimalPeriodicInterval = rejuv.OptimalPeriodicInterval
	DefaultCostModel        = rejuv.DefaultCostModel
)

// Telemetry: metrics registry with Prometheus exposition, and structured
// JSONL events. Instrumentation hooks (Monitor.Instrument,
// DualMonitor.Instrument, Machine.Instrument, FleetConfig.Obs/Events) are
// all nil-safe: passing a nil registry or emitter keeps the hot paths at
// zero overhead, so telemetry is strictly opt-in.
type (
	// Registry is a set of metric families (counters, gauges, histograms)
	// with Prometheus text exposition.
	Registry = obs.Registry
	// MetricCounter is a monotonically increasing metric.
	MetricCounter = obs.Counter
	// MetricGauge is an arbitrary float metric.
	MetricGauge = obs.Gauge
	// MetricHistogram is a fixed-bucket distribution metric.
	MetricHistogram = obs.Histogram
	// Events emits structured JSONL event records.
	Events = obs.Events
	// EventFields carries the payload of one event.
	EventFields = obs.Fields
	// EventLevel grades event severity.
	EventLevel = obs.Level
)

// NewRegistry creates an empty metrics registry.
var NewRegistry = obs.NewRegistry

// NewRand returns a deterministic random source for use with the
// constructors above; every stochastic component in this module takes an
// explicit *rand.Rand so runs are reproducible.
func NewRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// WriteTraceCSV exports a collected trace's counters as CSV.
func WriteTraceCSV(w io.Writer, tr Trace) error { return tr.WriteCSV(w) }
