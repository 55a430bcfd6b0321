// Command mfanalyze runs the offline multifractal aging analysis on any
// counter CSV (as produced by stressgen, or any file with a "timestamp"
// column followed by value columns): global Hurst estimates, MF-DFA
// generalized Hurst exponents and spectrum, and the Hölder-volatility
// jump report of the aging monitor. The Hölder trajectory and the jump
// report both run on the internal/stream kernel the online daemon uses,
// so offline analysis and live detection agree sample for sample.
//
// SIGINT/SIGTERM interrupt the analysis gracefully between stages (the
// results already printed stand); a second signal force-exits.
//
// Usage:
//
//	mfanalyze [-column NAME] [-file FILE]    (default: stdin, first column)
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"agingmf"
	"agingmf/internal/runtime"
)

// options is the parsed flag surface of one mfanalyze run.
type options struct {
	file   string
	column string
}

// newFlagSet declares the mfanalyze flag surface — names and defaults
// are part of the command's compatibility contract (pinned by the
// flag-surface test).
func newFlagSet(opt *options) *flag.FlagSet {
	fs := flag.NewFlagSet("mfanalyze", flag.ContinueOnError)
	fs.StringVar(&opt.file, "file", "", "input CSV (default stdin)")
	fs.StringVar(&opt.column, "column", "", "column to analyze (default: first)")
	return fs
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mfanalyze:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	var opt options
	if err := newFlagSet(&opt).Parse(args); err != nil {
		return err
	}

	// A signal interrupts the analysis at the next stage boundary (and
	// aborts a blocked stdin read); partial results already printed
	// stand. A second signal force-exits.
	ctx, stop := runtime.NotifyContext(context.Background(), runtime.SignalOptions{})
	defer stop()
	interrupted := func() bool {
		if sig, ok := runtime.Signal(ctx); ok {
			fmt.Fprintf(stdout, "interrupted: received %v, stopping analysis\n", sig)
			return true
		}
		return false
	}

	var in io.Reader = runtime.ContextReader{Ctx: ctx, R: stdin}
	if opt.file != "" {
		f, err := os.Open(opt.file)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	columns, err := agingmf.ReadSeriesCSV(in)
	if err != nil {
		if interrupted() {
			return nil
		}
		return err
	}
	s := columns[0]
	if opt.column != "" {
		found := false
		for _, c := range columns {
			if c.Name == opt.column {
				s = c
				found = true
				break
			}
		}
		if !found {
			names := make([]string, len(columns))
			for i, c := range columns {
				names[i] = c.Name
			}
			return fmt.Errorf("column %q not found; have %v", opt.column, names)
		}
	}
	// Every estimator below would turn a NaN or Inf into figures that look
	// valid; refuse the column before printing any of them.
	if !s.IsFinite() {
		return fmt.Errorf("column %q holds non-finite values (NaN or Inf)", s.Name)
	}
	fmt.Fprintf(stdout, "series %q: %d samples, step %v\n", s.Name, s.Len(), s.Step)
	if sum, err := s.Summarize(); err == nil {
		fmt.Fprintf(stdout, "summary: %v\n", sum)
	}

	// Global scaling estimates on the increments.
	diff, err := s.Diff()
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	if est, err := agingmf.DFA(diff.Values, 1); err == nil {
		fmt.Fprintf(tw, "DFA-1 exponent\t%.4f\t(R2 %.3f)\n", est.H, est.R2)
	}
	if est, err := agingmf.HurstRS(diff.Values); err == nil {
		fmt.Fprintf(tw, "R/S Hurst\t%.4f\t(R2 %.3f)\n", est.H, est.R2)
	}
	if est, err := agingmf.HurstPeriodogram(diff.Values); err == nil {
		fmt.Fprintf(tw, "periodogram Hurst\t%.4f\t(R2 %.3f)\n", est.H, est.R2)
	}
	if est, err := agingmf.Higuchi(s.Values, 0); err == nil {
		fmt.Fprintf(tw, "Higuchi dimension\t%.4f\t(R2 %.3f)\n", est.H, est.R2)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if interrupted() {
		return nil
	}

	// Multifractal spectrum.
	if res, err := agingmf.MFDFA(diff.Values, agingmf.DefaultMFDFAConfig()); err == nil {
		fmt.Fprintf(stdout, "\nMF-DFA h(q) (spectrum width %.4f):\n", res.Spectrum.Width())
		tw = tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "q\th(q)\ttau(q)")
		for i, q := range res.Qs {
			fmt.Fprintf(tw, "%.1f\t%.4f\t%.4f\n", q, res.Hq[i], res.Tau[i])
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	} else {
		fmt.Fprintf(stdout, "MF-DFA skipped: %v\n", err)
	}
	if interrupted() {
		return nil
	}

	// Aging monitor report.
	res, err := agingmf.Analyze(s, agingmf.DefaultMonitorConfig())
	if err != nil {
		fmt.Fprintf(stdout, "aging analysis skipped: %v\n", err)
		return nil
	}
	fmt.Fprintf(stdout, "\naging phase: %v (%d volatility jumps)\n", res.FinalPhase, len(res.Jumps))
	for i, j := range res.Jumps {
		fmt.Fprintf(stdout, "  jump %d at sample %d (time %v), volatility %.4f\n",
			i+1, j.SampleIndex, s.TimeAt(j.SampleIndex), j.Volatility)
	}
	return nil
}
