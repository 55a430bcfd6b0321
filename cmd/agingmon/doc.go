// Command agingmon attaches the multifractal aging monitor to memory
// counters online and prints aging events (volatility jumps, phase
// changes) as they happen.
//
// By default it monitors a simulated machine under the stress workload
// (the live-demo counterpart of the batch experiments). With -stdin it
// instead reads counter samples from standard input, one line per
// sample, in any fleet wire form — "free_bytes,swap_bytes",
// "free swap", "timestamp free swap", or a batched
// "batch;free swap;free swap;..." line, each optionally prefixed
// "source=ID " (source and timestamp are accepted and ignored here;
// cmd/agingd is the multi-source daemon). A stream of binary columnar
// frames (`stressgen -wire binary`, or anything else speaking the frame
// protocol in internal/source) is detected automatically from its first
// byte — the frame magic can never open a text line — and decoded the
// same way. Pipe a real system's counters in:
//
//	while true; do
//	  awk '/MemAvailable/{f=$2*1024} /SwapTotal/{t=$2*1024} /SwapFree/{s=$2*1024}
//	       END{printf "%d,%d\n", f, t-s}' /proc/meminfo
//	  sleep 1
//	done | agingmon -stdin
//
// The monitor is built to survive degraded inputs — the same systems it
// watches for aging also feed it: malformed stdin samples are skipped and
// counted (fatal only past -max-bad-samples), SIGINT/SIGTERM drain
// gracefully and save -state before exiting (a second signal force-exits
// a stuck drain), and -stall-timeout arms a watchdog that flips /healthz
// to 503 "stalled" when the sample stream dries up. The monitor keeps
// only the stage states its next sample needs, so a run of any length
// holds constant memory and -state writes a small, constant-size file;
// -history-limit, which once bounded its histories, is accepted with a
// warning and only recorded in the -state file's monitor configuration.
//
// The monitor pipeline is itself observable: -metrics-addr serves a
// Prometheus /metrics endpoint (plus /healthz and, with -pprof,
// net/http/pprof) while the run is live, and -events appends structured
// JSONL records (jump, phase_change, crash, bad_sample, stalled, ...) to
// a file, "-" meaning stdout. -trace-sample 1/N additionally samples
// pipeline stage spans (source.next, the stream stages, detect) onto
// GET /api/trace/export in Chrome/Perfetto JSON and into the
// agingmf_pipeline_stage_seconds histograms, and -flight-recorder-depth
// keeps the last N annotated samples on GET /api/trace/{source} (the
// source label is "sim" or "stream" to match the mode) — both endpoints
// ride the -metrics-addr listener.
//
// Usage:
//
//	agingmon [-seed N] [-ram-mib N] [-swap-mib N] [-leak PAGES]
//	         [-max-ticks N] [-stdin]
//	         [-state FILE] [-metrics-addr HOST:PORT] [-pprof]
//	         [-events FILE] [-tick-every DURATION]
//	         [-max-bad-samples N] [-stall-timeout DURATION]
//	         [-trace-sample 1/N] [-flight-recorder-depth N]
package main
