package main

import (
	"flag"
	"time"
)

// options is the parsed flag surface of one agingmon run.
type options struct {
	seed         int64
	ramMiB       int
	swapMiB      int
	leak         float64
	maxTicks     int
	limit        int
	stdin        bool
	state        string
	metricsAddr  string
	pprof        bool
	events       string
	tickEvery    time.Duration
	maxBad       int
	stallTimeout time.Duration
	traceSample  string
	flightDepth  int
	rejuvPolicy  string
}

// newFlagSet declares the agingmon flag surface — names and defaults are
// part of the command's compatibility contract (pinned by the
// flag-surface test).
func newFlagSet(opt *options) *flag.FlagSet {
	fs := flag.NewFlagSet("agingmon", flag.ContinueOnError)
	fs.Int64Var(&opt.seed, "seed", 1, "random seed")
	fs.IntVar(&opt.ramMiB, "ram-mib", 64, "physical memory in MiB")
	fs.IntVar(&opt.swapMiB, "swap-mib", 24, "swap space in MiB")
	fs.Float64Var(&opt.leak, "leak", 3.5, "server leak rate in pages/tick")
	fs.IntVar(&opt.maxTicks, "max-ticks", 60000, "simulation horizon in ticks")
	fs.IntVar(&opt.limit, "history-limit", 4096, "deprecated: the monitor keeps no history and ignores it; the value is only recorded in the -state file's configuration (accepted until the next release)")
	fs.BoolVar(&opt.stdin, "stdin", false, `read "free_bytes,swap_bytes" samples from stdin instead of simulating`)
	fs.StringVar(&opt.state, "state", "", "restore monitor state from this file at start, save on exit")
	fs.StringVar(&opt.metricsAddr, "metrics-addr", "", "serve /metrics and /healthz on this address while running (e.g. :9177; empty disables)")
	fs.BoolVar(&opt.pprof, "pprof", false, "also serve net/http/pprof under /debug/pprof/ (needs -metrics-addr)")
	fs.StringVar(&opt.events, "events", "", `append structured JSONL events to this file ("-" = stdout, empty disables)`)
	fs.DurationVar(&opt.tickEvery, "tick-every", 0, "pace simulation ticks in wall time (0 = as fast as possible)")
	fs.IntVar(&opt.maxBad, "max-bad-samples", 100, "tolerate this many malformed stdin samples before aborting (0 = abort on the first, negative = unlimited)")
	fs.DurationVar(&opt.stallTimeout, "stall-timeout", 0, `declare the stream "stalled" (503 on /healthz, stalled event) when no sample arrives within this long (0 disables)`)
	fs.StringVar(&opt.traceSample, "trace-sample", "0", `pipeline trace sampling: "1/N" or "N" traces one item in N, "0" disables; spans feed /api/trace/export and the agingmf_pipeline_stage_seconds histograms (needs -metrics-addr to serve them)`)
	fs.IntVar(&opt.flightDepth, "flight-recorder-depth", 64, "flight recorder: retain the last N annotated samples, served by /api/trace/{source} (0 disables)")
	fs.StringVar(&opt.rejuvPolicy, "rejuv-policy", "", `closed-loop rejuvenation policy: "periodic:<samples>" or "phase:<phase>[:<min-uptime>]" (empty disables); in sim mode decisions reboot the simulated machine, on a stream they are logged dry-run, status at GET /api/rejuv`)
	return fs
}
