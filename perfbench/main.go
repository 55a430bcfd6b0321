// Command perfbench is the repository's socket-to-verdict benchmark. For
// one workload and seed it runs the shipped agingd or agingmon binary as
// a subprocess at its default flags (listeners moved to loopback :0),
// feeds it a deterministically generated memsim fleet, checks every
// source's final detector state against a per-sample oracle, and prints
// the end-to-end metrics; with -trace 1 it instead replays the same input
// in process through each layer's public functions and prints per-layer
// metrics. See README.md beside this file.
//
// Usage (from the repository root; perfbench/run.sh builds everything):
//
//	perfbench -bin DIR -cache DIR -work DIR --workload NAME --seed N --seconds S --trace 0|1
//	perfbench ... repeat -n N [-workloads A,B] [-seed0 N] [-seconds S] -out FILE
//	perfbench ... compare [-bench BENCHMARK.json] OLD.json NEW.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the parsed command line of one run.
type options struct {
	bin, cache, work string
	workload         string
	seed             int64
	seconds          int
	trace            int
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.bin, "bin", "", "directory holding the built agingd and agingmon")
	fs.StringVar(&o.cache, "cache", "", "generated-input cache directory")
	fs.StringVar(&o.work, "work", "", "scratch directory for snapshots and traces")
	fs.StringVar(&o.workload, "workload", "", "workload name")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.IntVar(&o.seconds, "seconds", 10, "measurement budget in seconds")
	fs.IntVar(&o.trace, "trace", 0, "1 runs the traced per-layer replay instead of the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.Arg(0) == "compare" {
		return compareCmd(fs.Args()[1:])
	}
	if o.bin == "" || o.work == "" {
		return fmt.Errorf("-bin and -work are required (use perfbench/run.sh)")
	}
	switch fs.Arg(0) {
	case "repeat":
		return repeatCmd(o, fs.Args()[1:])
	case "":
	default:
		return fmt.Errorf("unknown command %q", fs.Arg(0))
	}
	res, err := runBench(o)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runBench runs one workload for one seed and returns its result.
func runBench(o options) (result, error) {
	w, err := lookupWorkload(o.workload)
	if err != nil {
		return result{}, err
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return result{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()

	t := time.Now()
	in, err := loadInputs(w, o.seed, o.cache)
	if err != nil {
		return result{}, err
	}
	wr, err := encodeWire(w, in)
	if err != nil {
		return result{}, err
	}
	expected, err := expectedStates(w, in)
	if err != nil {
		return result{}, err
	}
	logf("%s seed %d: %d sources, %d samples; inputs and oracle ready in %v",
		w.Name, o.seed, len(in.IDs), in.Total(), time.Since(t).Round(time.Millisecond))
	e := &env{w: w, in: in, wire: wr, expected: expected, bin: o.bin, work: o.work}

	budget := time.Duration(o.seconds) * time.Second
	if o.trace != 0 {
		return runTraced(ctx, e, budget)
	}
	lcs, err := measure(ctx, e, budget, 3)
	if err != nil {
		return result{}, err
	}
	return e2eResult(lcs), nil
}

// measure runs lifecycles until the budget is spent and at least min
// have completed.
func measure(ctx context.Context, e *env, budget time.Duration, min int) ([]lifecycle, error) {
	var lcs []lifecycle
	start := time.Now()
	for len(lcs) < min || time.Since(start) < budget {
		t := time.Now()
		lc, err := runLifecycle(ctx, e)
		if err != nil {
			return nil, fmt.Errorf("%s lifecycle %d: %w", e.w.Name, len(lcs)+1, err)
		}
		lcs = append(lcs, lc)
		logf("lifecycle %d: setup %.4fs, %.0f samples/s, %.0f cpu ns/sample, lag p50 %.3fms p%.1f %.3fms (%d units, poll floor %.3fms, generator late p99 %.3fms), rss %.1f KiB/source, shutdown %.3fs, failed %d/%d (%v)",
			len(lcs), lc.setups[0].Seconds(), lc.throughput, lc.cpuNs,
			ms(quantileDur(lc.lags, 0.5)), 100*tailQuantile(len(lc.lags)), ms(quantileDur(lc.lags, tailQuantile(len(lc.lags)))), len(lc.lags),
			ms(quantileDur(lc.floors, 0.5)),
			ms(quantileDur(lc.late, tailQuantile(len(lc.late)))),
			lc.rssKiB, lc.shutdown.Seconds(), lc.failed, lc.sent, time.Since(t).Round(time.Millisecond))
	}
	return lcs, nil
}

// e2eResult reduces lifecycles to the end-to-end metrics: set-up over
// every start-up, and the median of the per-lifecycle values for the
// rest. The open-loop lag is logged here and reported with --trace 1.
func e2eResult(lcs []lifecycle) result {
	res := result{Metrics: map[string]metric{}}
	pick := func(f func(lifecycle) float64) float64 {
		xs := make([]float64, len(lcs))
		for i, lc := range lcs {
			xs[i] = f(lc)
		}
		return median(xs)
	}
	var lags []time.Duration
	var setups []float64
	for _, lc := range lcs {
		res.Attempted += lc.sent
		res.Failed += lc.failed
		lags = append(lags, lc.lags...)
		for _, s := range lc.setups {
			setups = append(setups, s.Seconds())
		}
	}
	res.Correct = res.Failed == 0
	tail := tailQuantile(len(lags))
	logf("e2e: %d lifecycles, %d start-ups, %d lag units, lag p50 %.3fms p%.2f %.3fms (reported with --trace 1)",
		len(lcs), len(setups), len(lags), ms(quantileDur(lags, 0.5)), 100*tail, ms(quantileDur(lags, tail)))
	m := res.Metrics
	m["setup_s"] = metric{median(setups), "s"}
	m["throughput_sps"] = metric{pick(func(l lifecycle) float64 { return l.throughput }), "samples/s"}
	m["cpu_ns_per_sample"] = metric{pick(func(l lifecycle) float64 { return l.cpuNs }), "ns"}
	m["rss_kib_per_source"] = metric{pick(func(l lifecycle) float64 { return l.rssKiB }), "KiB"}
	m["shutdown_s"] = metric{pick(func(l lifecycle) float64 { return l.shutdown.Seconds() }), "s"}
	return res
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}
