// Package agingmf is a Go reproduction of "Software Aging and
// Multifractality of Memory Resources" (Shereshevsky, Cukic, Crowell,
// Gandikota, Liu — DSN 2003): online detection of software aging from the
// multifractal structure of operating-system memory counters.
//
// The package re-exports the part of the internal packages' API that the
// commands, examples and tests use, plus the types those names expose:
//
//   - the aging Monitor (the paper's contribution): stream a memory
//     counter in, get Hölder-volatility jump alarms and aging phases out;
//   - the analysis toolkit it is built on: pointwise Hölder estimation,
//     Hurst estimators, MF-DFA multifractal spectra, an EWMA change chart;
//   - the simulated substrate standing in for the paper's instrumented
//     Windows workstations: a page-level memory-subsystem simulator, a
//     heavy-tailed stress workload, and a counter collector;
//   - the prior-work trend-extrapolation baseline and rejuvenation-policy
//     evaluation;
//   - the fleet daemon's building blocks: ingestion server, control-plane
//     alerts and rejuvenator, and cluster nodes.
//
// Quickstart:
//
//	machine, _ := agingmf.NewMachine(agingmf.DefaultMachineConfig(), rng)
//	driver, _ := agingmf.NewDriver(machine, agingmf.DefaultWorkload(), nil, rng2)
//	trace, _ := agingmf.Collect(machine, driver, agingmf.DefaultCollect())
//	result, _ := agingmf.Analyze(trace.FreeMemory, agingmf.DefaultMonitorConfig())
//	fmt.Println(result.FinalPhase, len(result.Jumps))
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// reconstructed evaluation (runnable via cmd/experiments).
package agingmf
