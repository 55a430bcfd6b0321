// Command agingd is the fleet aging daemon: it ingests memory-counter
// samples from many machines concurrently and runs one online
// multifractal aging monitor per source, raising jump/phase-change/stall
// alerts as machines age.
//
// Producers speak the line protocol over TCP (-listen) or HTTP POST
// /ingest (-http). Each line is "free,swap", "free swap" or
// "timestamp free swap", optionally prefixed "source=ID " to multiplex
// many machines over one connection; lines without a source are keyed by
// the peer host. A machine can self-report with nothing but a shell
// loop:
//
//	while true; do
//	  awk '/MemAvailable/{f=$2*1024} /SwapTotal/{t=$2*1024} /SwapFree/{s=$2*1024}
//	       END{printf "%d %d\n", f, t-s}' /proc/meminfo
//	  sleep 1
//	done | nc agingd-host 9178
//
// Each source runs the detector suite named by -detectors (default
// "holder"): the paper's Hölder-volatility monitor, optionally joined by
// "entropy" (a multiscale sample-entropy collapse detector) and
// "adaptive" (a Hölder detector that recalibrates after confirmed
// workload shifts instead of alarming on them). Every detector keeps its
// own verdicts; alerts and the per-source status report them under a
// detector label.
//
// The HTTP listener also serves the fleet API (GET /api/sources,
// /api/sources/{id}/status, /api/alerts, /api/shards) and telemetry
// (/metrics, /healthz, opt-in /debug/pprof). Alerts fan out to the API's
// recent ring, an optional JSONL sink (-alerts) and an optional webhook
// (-webhook, delivered with bounded retries).
//
// With -rejuv-policy the daemon closes the loop: a rejuvenation
// controller subscribed to the alert bus runs one policy per source
// ("periodic:<samples>" or "phase:<phase>[:<min-uptime>]") under
// anti-affinity staggering and a rolling cost budget, logging each
// would-be restart as a dry-run "rejuvenate" event and serving its
// decision state at GET /api/rejuv. Controller state persists beside
// -snapshot and survives restarts.
//
// Observability of the pipeline itself is opt-in: -trace-sample 1/N times
// one ingested unit in N through every stage (parse, queue wait, the
// detector's stream stages, alert fan-out), served as Chrome/Perfetto
// JSON at GET /api/trace/export and as agingmf_pipeline_stage_seconds
// histograms on /metrics. -flight-recorder-depth keeps the last N
// annotated samples per source (value, score, phase, verdict, stage
// timings) at GET /api/trace/{source} — the first thing to pull up when
// one machine's monitor behaves strangely. When a shard stops draining
// its queue for longer than -stall-timeout, /healthz flips to 503.
//
// State survives restarts: -snapshot names a file the daemon writes
// every -snapshot-every and on shutdown, and reads back at start — a
// restarted daemon resumes every source's monitor exactly where it
// stopped. A source's monitors keep only the stage states their next
// sample needs, so its memory and its share of the snapshot stay the
// same size however long it runs; -history-limit, which once bounded
// their histories, is accepted with a warning and only recorded in the
// snapshot's monitor configuration. SIGINT/SIGTERM drain gracefully:
// intake stops, queued samples reach their monitors, and the final
// snapshot is written before exit. A second signal force-exits a stuck
// drain.
//
// Several daemons can share one fleet: -cluster-addr names this node
// (the host:port peers reach its HTTP listener at) and -cluster-peers
// lists the other members. Sources are routed by consistent hashing over
// the live membership — a line arriving at the wrong node is forwarded
// to its owner — and ownership moves between nodes by live handoff that
// carries the source's exact monitor state, so verdicts stay
// byte-identical across a migration. Peer health rides heartbeats; a
// dead node's sources are adopted by the survivors from its last
// snapshot, and a graceful shutdown (SIGINT/SIGTERM) first hands every
// held source to the remaining peers. GET /api/cluster serves the
// membership and routing status.
//
// With -selftest the daemon exercises itself end-to-end: it drives
// -selftest-sources simulated machines (internal/memsim) through its own
// TCP socket and verifies that no sample was lost and that every
// source's monitor state is byte-for-byte identical to a single-process
// monitor fed the same trace, then exits non-zero on any discrepancy.
// -selftest-binary does the same over the binary columnar wire at full
// rate: deterministic quantized leak traces are streamed as pre-encoded
// frames, and the run passes only with zero loss, zero frame rejects and
// byte-for-byte parity against per-sample reference monitors, reporting
// the sustained samples/second.
// -selftest-cluster does the same for the clustered path: an in-process
// cluster of -selftest-cluster-nodes nodes streams
// -selftest-cluster-sources sources through kill/restart/rebalance churn
// and verifies single ownership, zero loss and oracle parity.
//
// Usage:
//
//	agingd [-listen HOST:PORT] [-http HOST:PORT] [-shards N] [-queue N]
//	       [-snapshot FILE] [-snapshot-every DURATION]
//	       [-stall-timeout DURATION] [-max-sources N] [-max-bad-lines N]
//	       [-detectors LIST] [-alerts FILE] [-events FILE]
//	       [-webhook URL] [-trace-sample 1/N] [-flight-recorder-depth N]
//	       [-pprof] [-rejuv-policy SPEC]
//	       [-cluster-addr HOST:PORT] [-cluster-peers HOST:PORT,...]
//	       [-selftest] [-selftest-sources N] [-selftest-samples N]
//	       [-selftest-conns N] [-selftest-batch N] [-seed N]
//	       [-selftest-binary] [-selftest-binary-sources N]
//	       [-selftest-binary-samples N] [-selftest-binary-frame N]
//	       [-selftest-cluster] [-selftest-cluster-nodes N]
//	       [-selftest-cluster-sources N] [-selftest-cluster-samples N]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"agingmf"
	"agingmf/internal/runtime"
)

// options is the parsed flag surface of one agingd run.
type options struct {
	listen        string
	httpAddr      string
	shards        int
	queue         int
	snapshot      string
	snapshotEvery time.Duration
	stallTimeout  time.Duration
	maxSources    int
	maxBadLines   int
	detectors     string
	idleTimeout   time.Duration
	historyLimit  int
	alerts        string
	events        string
	webhook       string
	traceSample   string
	flightDepth   int
	pprof         bool
	rejuvPolicy   string
	clusterAddr   string
	clusterPeers  string
	selftest      bool
	stSources     int
	stSamples     int
	stConns       int
	stBatch       int
	sbSelftest    bool
	sbSources     int
	sbSamples     int
	sbFrame       int
	scSelftest    bool
	scNodes       int
	scSources     int
	scSamples     int
	seed          int64
}

// newFlagSet declares the agingd flag surface — names and defaults are
// part of the daemon's compatibility contract (pinned by the
// flag-surface test).
func newFlagSet(opt *options) *flag.FlagSet {
	fs := flag.NewFlagSet("agingd", flag.ContinueOnError)
	fs.StringVar(&opt.listen, "listen", ":9178", "TCP line-protocol listener address (empty disables)")
	fs.StringVar(&opt.httpAddr, "http", ":9179", "HTTP listener: POST /ingest, the /api endpoints, /metrics, /healthz (empty disables)")
	fs.IntVar(&opt.shards, "shards", 8, "monitor shards (single-writer goroutines)")
	fs.IntVar(&opt.queue, "queue", 1024, "per-shard queue bound: messages (a frame, a batch; line, or one read's lone-sample lines for the shard), and lone-sample lines within them")
	fs.StringVar(&opt.snapshot, "snapshot", "", "state snapshot file: read at start, written every -snapshot-every and on shutdown (empty disables)")
	fs.DurationVar(&opt.snapshotEvery, "snapshot-every", time.Minute, "periodic snapshot cadence")
	fs.DurationVar(&opt.stallTimeout, "stall-timeout", 0, "raise a stall alert when a source is silent this long (0 disables)")
	fs.IntVar(&opt.maxSources, "max-sources", 65536, "cap on tracked sources (negative = unlimited)")
	fs.IntVar(&opt.maxBadLines, "max-bad-lines", 100, "per-connection malformed-line budget before the connection is closed (negative = unlimited)")
	fs.DurationVar(&opt.idleTimeout, "idle-timeout", 0, "close a TCP connection idle this long (0 disables)")
	fs.IntVar(&opt.historyLimit, "history-limit", 4096, "deprecated: monitors keep no history and ignore it; the value is only recorded in each monitor's snapshot configuration (accepted until the next release)")
	fs.StringVar(&opt.detectors, "detectors", "holder", `comma-separated detector suite run per source: "holder" (Hölder volatility), "entropy" (multiscale sample entropy), "adaptive" (workload-shift-aware holder)`)
	fs.StringVar(&opt.alerts, "alerts", "", `append alert JSONL to this file ("-" = stdout, empty disables)`)
	fs.StringVar(&opt.events, "events", "", `append lifecycle JSONL events to this file ("-" = stdout, empty disables)`)
	fs.StringVar(&opt.webhook, "webhook", "", "POST each alert to this URL with bounded retries (empty disables)")
	fs.StringVar(&opt.traceSample, "trace-sample", "0", `pipeline trace sampling: "1/N" or "N" traces one ingested unit in N, "0" disables; spans feed /api/trace/export and the agingmf_pipeline_stage_seconds histograms`)
	fs.IntVar(&opt.flightDepth, "flight-recorder-depth", 64, "per-source flight recorder: retain the last N annotated samples, served by /api/trace/{source} (0 disables)")
	fs.BoolVar(&opt.pprof, "pprof", false, "serve net/http/pprof under /debug/pprof/ on the HTTP listener")
	fs.StringVar(&opt.rejuvPolicy, "rejuv-policy", "", `closed-loop rejuvenation policy driven by the alert bus: "periodic:<samples>" or "phase:<phase>[:<min-uptime>]" (empty disables); decisions are logged dry-run and served at GET /api/rejuv`)
	fs.StringVar(&opt.clusterAddr, "cluster-addr", "", "this node's advertised host:port for cluster peers — enables clustered routing over the HTTP listener (empty disables)")
	fs.StringVar(&opt.clusterPeers, "cluster-peers", "", "comma-separated peer host:port list for the cluster membership")
	fs.BoolVar(&opt.selftest, "selftest", false, "drive simulated machines through the real socket, verify zero loss and monitor parity, then exit")
	fs.IntVar(&opt.stSources, "selftest-sources", 64, "self-test: simulated machines")
	fs.IntVar(&opt.stSamples, "selftest-samples", 256, "self-test: samples per machine")
	fs.IntVar(&opt.stConns, "selftest-conns", 0, "self-test: TCP connections to multiplex over (0 = min(sources, 64))")
	fs.IntVar(&opt.stBatch, "selftest-batch", 8, "self-test: samples per batch; wire line (1 = plain per-sample lines)")
	fs.BoolVar(&opt.sbSelftest, "selftest-binary", false, "stream deterministic leak traces as binary columnar frames through the real socket, verify zero loss, zero rejects and row-path parity, report throughput, then exit")
	fs.IntVar(&opt.sbSources, "selftest-binary-sources", 4, "binary self-test: simulated machines")
	fs.IntVar(&opt.sbSamples, "selftest-binary-samples", 1<<21, "binary self-test: samples per machine")
	fs.IntVar(&opt.sbFrame, "selftest-binary-frame", 4096, "binary self-test: samples per wire frame")
	fs.BoolVar(&opt.scSelftest, "selftest-cluster", false, "drive an in-process multi-node cluster through kill/restart/rebalance churn, verify zero loss and oracle parity, then exit")
	fs.IntVar(&opt.scNodes, "selftest-cluster-nodes", 3, "cluster self-test: in-process nodes (minimum 3)")
	fs.IntVar(&opt.scSources, "selftest-cluster-sources", 100000, "cluster self-test: simulated fleet size")
	fs.IntVar(&opt.scSamples, "selftest-cluster-samples", 24, "cluster self-test: samples per source")
	fs.Int64Var(&opt.seed, "seed", 1, "self-test: deterministic trace seed")
	return fs
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "agingd:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	var opt options
	fs := newFlagSet(&opt)
	if err := fs.Parse(args); err != nil {
		return err
	}
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "history-limit" {
			fmt.Fprintln(stdout, "agingd: warning: -history-limit is deprecated and ignored: monitors keep no history")
		}
	})

	// The cluster self-test is fully in-process (MemTransport, shared
	// MemStore): no listeners, no event sinks — run it and exit.
	if opt.scSelftest {
		return runClusterSelfTest(stdout, opt)
	}

	events, closeEvents, err := runtime.OpenEvents(opt.events)
	if err != nil {
		return err
	}
	defer closeEvents()
	alertEvents, closeAlerts, err := runtime.OpenEvents(opt.alerts)
	if err != nil {
		return err
	}
	defer closeAlerts()

	sampleEvery, err := agingmf.ParseTraceSampleRate(opt.traceSample)
	if err != nil {
		return fmt.Errorf("-trace-sample: %w", err)
	}

	detectors, err := agingmf.ParseDetectorKinds(opt.detectors)
	if err != nil {
		return fmt.Errorf("-detectors: %w", err)
	}

	// The deprecated value changes no verdict, but snapshots embed the
	// monitor configuration, so it keeps a snapshot byte-identical to one
	// from a monitor built with the same flags.
	monCfg := agingmf.DefaultMonitorConfig()
	monCfg.HistoryLimit = opt.historyLimit
	met := agingmf.NewRegistry()
	srv, err := agingmf.NewIngestServer(agingmf.IngestServerConfig{
		Registry: agingmf.IngestConfig{
			Shards:              opt.shards,
			QueueSize:           opt.queue,
			Monitor:             monCfg,
			Detectors:           detectors,
			MaxSources:          opt.maxSources,
			StallTimeout:        opt.stallTimeout,
			Obs:                 met,
			Events:              events,
			TraceSampleEvery:    sampleEvery,
			FlightRecorderDepth: opt.flightDepth,
		},
		TCPAddr:       opt.listen,
		HTTPAddr:      opt.httpAddr,
		MaxBadLines:   opt.maxBadLines,
		IdleTimeout:   opt.idleTimeout,
		SnapshotPath:  opt.snapshot,
		SnapshotEvery: opt.snapshotEvery,
		EnablePprof:   opt.pprof,
	})
	if err != nil {
		return err
	}

	// Clustering: route every ingested line through the membership ring
	// (lines whose ring owner is a peer are forwarded), and mount the
	// node-to-node protocol plus /api/cluster on the HTTP listener.
	var node *agingmf.ClusterNode
	if opt.clusterAddr != "" {
		node, err = agingmf.NewClusterNode(agingmf.ClusterConfig{
			Self:           opt.clusterAddr,
			Peers:          splitPeers(opt.clusterPeers),
			Transport:      &agingmf.ClusterHTTPTransport{},
			Registry:       srv.Registry(),
			HeartbeatEvery: time.Second,
			Obs:            met,
			Events:         events,
		})
		if err != nil {
			return fmt.Errorf("cluster: %w", err)
		}
		srv.SetRouter(node)
		h := node.Handler()
		srv.Mount("/cluster/", h)
		srv.Mount("/api/cluster", h)
	}

	// Closed-loop rejuvenation: a controller subscribed to the alert bus
	// runs one policy per source. agingd cannot restart remote machines,
	// so decisions actuate through the dry-run actuator — each would-be
	// restart is a logged "rejuvenate" event plus a bus alert that an
	// operator (or an automation tailing -events) executes. When
	// clustered, sources sharing a ring owner form one anti-affinity
	// group and never rejuvenate inside the same stagger window.
	var rej *agingmf.Rejuvenator
	if opt.rejuvPolicy != "" {
		factory, err := agingmf.ParseRejuvenationPolicy(opt.rejuvPolicy)
		if err != nil {
			return fmt.Errorf("-rejuv-policy: %w", err)
		}
		if factory != nil {
			var group func(string) string
			if node != nil {
				group = func(id string) string { return node.Ring().Owner(id) }
			}
			rej, err = agingmf.NewRejuvenator(agingmf.RejuvenatorConfig{
				Bus:      srv.Registry().Alerts(),
				Actuator: &agingmf.DryRunActuator{Events: events},
				Policy:   factory,
				Group:    group,
				Events:   events,
				Obs:      met,
			})
			if err != nil {
				return fmt.Errorf("-rejuv-policy: %w", err)
			}
			if opt.snapshot != "" {
				if blob, rerr := os.ReadFile(rejuvStatePath(opt.snapshot)); rerr == nil {
					if rerr = rej.RestoreState(blob); rerr != nil {
						events.Warn("rejuv_restore_failed", agingmf.EventFields{"error": rerr.Error()})
					}
				}
			}
			srv.Mount("/api/rejuv", rejuvHandler(rej))
		}
	}

	if err := srv.Start(); err != nil {
		return err
	}
	if rej != nil {
		if err := rej.Start(); err != nil {
			return err
		}
		defer rej.Stop()
		fmt.Fprintf(stdout, "rejuvenation: policy %s (dry-run), status at /api/rejuv\n", opt.rejuvPolicy)
	}
	if node != nil {
		node.Start()
		fmt.Fprintf(stdout, "cluster: node %s, peers [%s]\n", opt.clusterAddr, opt.clusterPeers)
	}
	if n := srv.Registry().NumSources(); n > 0 {
		fmt.Fprintf(stdout, "restored %d sources from %s\n", n, opt.snapshot)
	}
	if a := srv.TCPAddr(); a != nil {
		fmt.Fprintf(stdout, "ingest: tcp://%s\n", a)
	}
	if a := srv.HTTPAddr(); a != nil {
		fmt.Fprintf(stdout, "api: http://%s/api/sources\n", a)
	}

	// Alert sinks drain their own bus subscriptions; a slow or dead sink
	// drops alerts (counted), never backpressures ingestion.
	sinkCtx, cancelSinks := context.WithCancel(context.Background())
	defer cancelSinks()
	if alertEvents != nil {
		go agingmf.AlertJSONLSink(srv.Registry().Alerts().Subscribe("jsonl", 256), alertEvents)
	}
	if opt.webhook != "" {
		go agingmf.AlertWebhookSink(sinkCtx, srv.Registry().Alerts().Subscribe("webhook", 256),
			agingmf.AlertWebhookConfig{URL: opt.webhook}, events)
	}

	if opt.sbSelftest {
		if node != nil {
			defer node.Stop()
		}
		return runBinarySelfTest(sinkCtx, srv, stdout, opt)
	}
	if opt.selftest {
		if node != nil {
			defer node.Stop()
		}
		return runSelfTest(sinkCtx, srv, stdout, opt)
	}

	// Serve until a termination signal, then drain: stop intake, feed
	// every queued sample to its monitor, write the final snapshot. A
	// second signal force-exits a stuck drain.
	ctx, stop := runtime.NotifyContext(context.Background(), runtime.SignalOptions{})
	defer stop()
	<-ctx.Done()
	sig, _ := runtime.Signal(ctx)
	fmt.Fprintf(stdout, "received %v: draining and saving state\n", sig)
	events.Warn("signal", agingmf.EventFields{"signal": sig.String()})

	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if node != nil {
		// Leave drains every held source to the surviving peers (live
		// handoff) before the server stops accepting; a peerless or
		// partitioned node just stops, keeping its snapshot.
		if err := node.Leave(shutCtx); err != nil {
			fmt.Fprintf(stdout, "cluster leave: %v\n", err)
			events.Warn("cluster_leave_failed", agingmf.EventFields{"error": err.Error()})
		}
	}
	if err := srv.Shutdown(shutCtx); err != nil {
		return err
	}
	if rej != nil {
		rej.Stop()
		if opt.snapshot != "" {
			if blob, serr := rej.SaveState(); serr == nil {
				if serr = runtime.WriteFileAtomic(rejuvStatePath(opt.snapshot), blob, 0o644); serr != nil {
					events.Warn("rejuv_snapshot_failed", agingmf.EventFields{"error": serr.Error()})
				}
			}
		}
	}
	reg := srv.Registry()
	fmt.Fprintf(stdout, "drained: %d sources, %d samples accepted, %d dropped, %d alerts\n",
		reg.NumSources(), reg.Accepted(), reg.Dropped(), reg.Alerts().Total())
	return nil
}

// rejuvStatePath names the rejuvenation controller's state blob. It
// lives beside the ingest snapshot but in its own file: the ingest gob
// envelope is a pinned compatibility surface and must not grow fields.
func rejuvStatePath(snapshot string) string { return snapshot + ".rejuv" }

// rejuvHandler serves the controller status as GET /api/rejuv.
func rejuvHandler(rej *agingmf.Rejuvenator) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(rej.Status())
	})
}

// splitPeers parses the comma-separated -cluster-peers list.
func splitPeers(s string) []string {
	var peers []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, p)
		}
	}
	return peers
}

// runClusterSelfTest drives an in-process multi-node cluster through the
// kill/restart/rebalance churn campaign: routed streaming with full
// membership, a crash-kill forcing dead-node adoption from the shared
// snapshot store, and a rejoin forcing live migration under load. It
// returns an error on any ownership violation, sample loss or
// detector-state parity mismatch against the single-process oracle.
func runClusterSelfTest(stdout io.Writer, opt options) error {
	detectors, err := agingmf.ParseDetectorKinds(opt.detectors)
	if err != nil {
		return fmt.Errorf("-detectors: %w", err)
	}
	res, err := agingmf.RunClusterSelfTest(agingmf.ClusterSelfTestConfig{
		Nodes:     opt.scNodes,
		Sources:   opt.scSources,
		Samples:   opt.scSamples,
		Seed:      opt.seed,
		Detectors: detectors,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(stdout, format+"\n", args...)
		},
	})
	if err != nil {
		return fmt.Errorf("cluster selftest failed: %w", err)
	}
	fmt.Fprintf(stdout, "cluster selftest: %d lines, %d forwards, %d migrations, %d adoptions, loss %d, parity mismatches %d in %v\n",
		res.LinesSent, res.Forwards, res.Migrations, res.AdoptionsRestore,
		res.SampleLoss, len(res.ParityMismatches), res.Elapsed.Round(time.Millisecond))
	fmt.Fprintln(stdout, "cluster selftest: PASS")
	return nil
}

// runSelfTest exercises the daemon end-to-end and shuts it down.
func runSelfTest(ctx context.Context, srv *agingmf.IngestServer, stdout io.Writer, opt options) error {
	fmt.Fprintf(stdout, "selftest: %d sources x %d samples, batch %d, seed %d\n",
		opt.stSources, opt.stSamples, opt.stBatch, opt.seed)
	rep, err := agingmf.RunIngestSelfTest(ctx, srv, agingmf.IngestSelfTestConfig{
		Sources:   opt.stSources,
		Samples:   opt.stSamples,
		Conns:     opt.stConns,
		BatchSize: opt.stBatch,
		Seed:      opt.seed,
	})
	// While the server is still up, verify the trace export over the real
	// HTTP listener: when tracing is on, /api/trace/export must serve
	// valid Chrome/Perfetto JSON.
	var exportErr error
	if err == nil && rep.TraceSpans > 0 {
		exportErr = checkTraceExport(srv, stdout)
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	serr := srv.Shutdown(shutCtx)
	if err != nil {
		return err
	}
	if exportErr != nil {
		return exportErr
	}
	fmt.Fprintf(stdout, "selftest: sent %d, accepted %d, dropped %d, %d jumps, %d alerts, %d parity mismatches, %d recorder failures, %d trace spans in %v\n",
		rep.SamplesSent, rep.Accepted, rep.Dropped, rep.Jumps, rep.Alerts,
		len(rep.ParityMismatches), len(rep.RecorderFailures), rep.TraceSpans,
		rep.Elapsed.Round(time.Millisecond))
	if !rep.Ok() {
		return fmt.Errorf("selftest failed: accepted %d/%d, dropped %d, bad lines %d, parity mismatches %v, recorder failures %v",
			rep.Accepted, rep.SamplesSent, rep.Dropped, rep.BadLines, rep.ParityMismatches, rep.RecorderFailures)
	}
	fmt.Fprintln(stdout, "selftest: PASS")
	return serr
}

// runBinarySelfTest streams deterministic leak traces through the real
// socket as binary columnar frames, verifies zero loss / zero rejects /
// byte-for-byte row-path parity, reports ingest throughput, and shuts
// the daemon down.
func runBinarySelfTest(ctx context.Context, srv *agingmf.IngestServer, stdout io.Writer, opt options) error {
	fmt.Fprintf(stdout, "selftest-binary: %d sources x %d samples, %d samples/frame, seed %d (trace sample %s, flight recorder depth %d)\n",
		opt.sbSources, opt.sbSamples, opt.sbFrame, opt.seed, opt.traceSample, opt.flightDepth)
	rep, err := agingmf.RunBinaryIngestSelfTest(ctx, srv, agingmf.BinaryIngestSelfTestConfig{
		Sources:      opt.sbSources,
		Samples:      opt.sbSamples,
		FrameSamples: opt.sbFrame,
		Seed:         opt.seed,
	})
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	serr := srv.Shutdown(shutCtx)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "selftest-binary: sent %d samples in %d frames, accepted %d, dropped %d, bad frames %d, %d alerts, %d parity mismatches; %.2fM samples/s over %v wire time (%v total)\n",
		rep.SamplesSent, rep.FramesSent, rep.Accepted, rep.Dropped, rep.BadFrames,
		rep.Alerts, len(rep.ParityMismatches), rep.SamplesPerSec/1e6,
		rep.LoadElapsed.Round(time.Millisecond), rep.Elapsed.Round(time.Millisecond))
	if !rep.Ok() {
		return fmt.Errorf("selftest-binary failed: accepted %d/%d, dropped %d, bad frames %d, parity mismatches %v",
			rep.Accepted, rep.SamplesSent, rep.Dropped, rep.BadFrames, rep.ParityMismatches)
	}
	fmt.Fprintln(stdout, "selftest-binary: PASS")
	return serr
}

// checkTraceExport fetches /api/trace/export from the live HTTP listener
// and verifies it is valid JSON with at least one event.
func checkTraceExport(srv *agingmf.IngestServer, stdout io.Writer) error {
	addr := srv.HTTPAddr()
	if addr == nil {
		return nil // no API listener configured; nothing to verify
	}
	resp, err := http.Get("http://" + addr.String() + "/api/trace/export")
	if err != nil {
		return fmt.Errorf("selftest: trace export: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("selftest: trace export read: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("selftest: trace export status %d", resp.StatusCode)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return fmt.Errorf("selftest: trace export is not valid JSON: %w", err)
	}
	if len(doc.TraceEvents) == 0 {
		return fmt.Errorf("selftest: trace export has no events")
	}
	fmt.Fprintf(stdout, "selftest: trace export ok (%d events, %d bytes)\n",
		len(doc.TraceEvents), len(body))
	return nil
}
