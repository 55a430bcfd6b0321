package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"text/tabwriter"
)

// The repeat-and-compare tool. `repeat` runs the benchmark N times per
// workload, each run in a fresh process with its own seed, and writes
// every result plus a per-metric summary; `compare` reads two such files
// and reports, workload by workload, each end-to-end metric's change
// against the bound BENCHMARK.json fixes for it.

// summary is one metric's distribution over repeated runs.
type summary struct {
	Unit   string    `json:"unit"`
	N      int       `json:"n"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return math.Inf(1)
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// repeatRun is one run's workload, seed and printed result.
type repeatRun struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Result   result `json:"result"`
}

// repeatFile is what repeat writes and compare reads.
type repeatFile struct {
	Runs []repeatRun `json:"runs"`
	// Summary is per workload, per metric.
	Summary map[string]map[string]summary `json:"summary"`
}

// quartiles returns the first quartile, median and third quartile of xs
// by the method of Python's statistics.quantiles(xs, n=4) (the
// "exclusive" default) and statistics.median.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), median(s), q(3)
}

// summarize reduces runs to per-workload, per-metric summaries.
func summarize(runs []repeatRun) map[string]map[string]summary {
	out := map[string]map[string]summary{}
	for _, r := range runs {
		ws := out[r.Workload]
		if ws == nil {
			ws = map[string]summary{}
			out[r.Workload] = ws
		}
		for name, m := range r.Result.Metrics {
			s := ws[name]
			s.Unit = m.Unit
			s.Values = append(s.Values, m.Value)
			ws[name] = s
		}
	}
	for _, ws := range out {
		for name, s := range ws {
			s.N = len(s.Values)
			s.Q1, s.Median, s.Q3 = quartiles(s.Values)
			ws[name] = s
		}
	}
	return out
}

// repeatCmd runs `repeat -n N -workloads a,b -seed0 S -seconds R -out
// FILE`: N end-to-end runs per workload with seeds S, S+1, ..., each in a
// child process of this binary.
func repeatCmd(o options, args []string) error {
	fs := flag.NewFlagSet("repeat", flag.ContinueOnError)
	n := fs.Int("n", 10, "runs per workload")
	names := fs.String("workloads", "", "comma-separated workloads (empty: all)")
	seed0 := fs.Int64("seed0", 1, "seed of the first run; run i uses seed0+i")
	seconds := fs.Int("seconds", o.seconds, "measurement budget per run")
	out := fs.String("out", "", "file to write the runs and summary to (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" || *n < 1 {
		return errors.New("repeat: -out and a positive -n are required")
	}
	var ws []string
	if *names == "" {
		for _, w := range workloads {
			ws = append(ws, w.Name)
		}
	} else {
		ws = strings.Split(*names, ",")
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var f repeatFile
	for _, w := range ws {
		if _, err := lookupWorkload(w); err != nil {
			return err
		}
		for i := 0; i < *n; i++ {
			seed := *seed0 + int64(i)
			res, err := runChild(self, o, w, seed, *seconds)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w, seed, err)
			}
			f.Runs = append(f.Runs, repeatRun{Workload: w, Seed: seed, Result: res})
		}
	}
	f.Summary = summarize(f.Runs)
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return writeSummary(os.Stdout, f.Summary)
}

// runChild runs one end-to-end benchmark in a fresh process and parses
// the result line it prints last.
func runChild(self string, o options, workload string, seed int64, seconds int) (result, error) {
	cmd := exec.Command(self, "-bin", o.bin, "-cache", o.cache, "-work", o.work,
		"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", "0")
	// A run must not outlive a repeat that is stopped midway.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return result{}, err
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, fmt.Errorf("result line: %w", err)
	}
	if !res.Correct || res.Failed != 0 {
		return res, fmt.Errorf("incorrect run: %d of %d samples failed", res.Failed, res.Attempted)
	}
	return res, nil
}

// writeSummary prints one row per workload and metric.
func writeSummary(w io.Writer, sum map[string]map[string]summary) error {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tn\tq1\tmedian\tq3\tspread\tunit\t")
	for _, wl := range sortedKeys(sum) {
		for _, name := range sortedKeys(sum[wl]) {
			s := sum[wl][name]
			fmt.Fprintf(tw, "%s\t%s\t%d\t%.6g\t%.6g\t%.6g\t%.3f\t%s\t\n", wl, name, s.N, s.Q1, s.Median, s.Q3, s.spread(), s.Unit)
		}
	}
	return tw.Flush()
}

// benchSpec is the part of BENCHMARK.json compare needs.
type benchSpec struct {
	EndToEnd []metricBound `json:"end_to_end"`
}

// metricBound is one end-to-end metric's direction and regression bound.
type metricBound struct {
	Name   string  `json:"name"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // share of the old median
}

// verdict compares one metric's runs on two commits. A change counts
// when the medians differ by more than the bound. When either side's
// spread exceeds the bound, the medians cannot resolve a change of that
// size: the verdict is "unresolved" unless the two sides' runs do not
// overlap at all.
func verdict(old, cur summary, bound float64, lowerIsBetter bool) (string, float64) {
	delta := (cur.Median - old.Median) / math.Abs(old.Median)
	worse := delta > 0
	if !lowerIsBetter {
		worse = delta < 0
	}
	if old.spread() > bound || cur.spread() > bound {
		lo, hi := minMax(old.Values)
		clo, chi := minMax(cur.Values)
		if chi >= lo && clo <= hi {
			return "unresolved", delta
		}
	}
	switch {
	case math.Abs(delta) <= bound:
		return "unchanged", delta
	case worse:
		return "REGRESSION", delta
	default:
		return "better", delta
	}
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

// compareCmd runs `compare [-bench BENCHMARK.json] OLD NEW`. It exits
// non-zero when any workload regressed beyond a bound.
func compareCmd(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding each metric's bound")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return errors.New("compare: want OLD.json NEW.json")
	}
	var spec benchSpec
	var files [2]repeatFile
	for i, p := range []string{*specPath, fs.Arg(0), fs.Arg(1)} {
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		dst := any(&spec)
		if i > 0 {
			dst = &files[i-1]
		}
		if err := json.Unmarshal(data, dst); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	regressions, err := compare(os.Stdout, spec, files[0].Summary, files[1].Summary)
	if err != nil {
		return err
	}
	if regressions > 0 {
		return fmt.Errorf("%d workload metrics regressed beyond their bounds", regressions)
	}
	return nil
}

// compare writes one row per workload and end-to-end metric present in
// both summaries and returns how many regressed.
func compare(w io.Writer, spec benchSpec, old, cur map[string]map[string]summary) (int, error) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\told median\tnew median\tchange\told spread\tnew spread\tbound\tverdict\t")
	regressions := 0
	for _, wl := range sortedKeys(old) {
		for _, m := range spec.EndToEnd {
			o, ok1 := old[wl][m.Name]
			c, ok2 := cur[wl][m.Name]
			if !ok1 || !ok2 {
				continue
			}
			v, delta := verdict(o, c, m.Bound, m.Better == "lower")
			if v == "REGRESSION" {
				regressions++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%.3f\t%.3f\t%.2f\t%s\t\n",
				wl, m.Name, o.Median, c.Median, 100*delta, o.spread(), c.spread(), m.Bound, v)
		}
	}
	return regressions, tw.Flush()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
