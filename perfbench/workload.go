package main

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"

	"agingmf/internal/aging"
	"agingmf/internal/detect"
	"agingmf/internal/ingest"
	"agingmf/internal/memsim"
	"agingmf/internal/source"
	"agingmf/internal/workload"
)

// Workload is one input set the benchmark runs: which binary serves it,
// the flags it adds to the binary's shipped defaults, the shape of the
// simulated fleet and how it is put on the wire.
type Workload struct {
	Name string
	// Daemon is "agingd" or "agingmon".
	Daemon string
	// Flags are appended to the listener flags; every other flag keeps
	// its shipped default.
	Flags []string
	// Detectors is the per-source suite the daemon runs (the oracle and
	// the replay build the same one).
	Detectors []string
	// Recorder is the flight-recorder depth the daemon runs with.
	Recorder int

	Sources int
	// Prefix samples per source are folded into the prepared snapshot
	// the daemon restores (restart-suite only); the rest of each trace is
	// streamed.
	Prefix int
	// LagSamples are each source's last streamed samples, which feed the
	// open-loop lag phase; the rest feed the closed-loop phase.
	LagSamples int
	// Frame is the samples per binary frame; 0 sends text lines.
	Frame int
	// Conns is the number of producer connections in the closed loop.
	Conns int
	// LagRate is the fixed offered rate, in samples/s, of the open-loop
	// phase on one connection: about a third (text lines: a sixth) of the
	// closed-loop one-connection saturation measured when the benchmark
	// was defined (README.md records both, and why not two thirds). It is never
	// re-derived, so lag stays comparable across commits.
	LagRate float64

	// machine returns the simulation settings of machine i.
	machine func(i int) machineSpec
}

// machineSpec is one simulated machine's leak rate and trace length; the
// hardware is memsim's default machine.
type machineSpec struct {
	Leak float64
	// MaxTicks bounds the trace, prefix included; a crash ends it earlier.
	MaxTicks int
}

// agingd's shipped registry defaults (-shards, -queue, -max-sources),
// which the traced replay's registry copies.
const (
	agingdShards     = 8
	agingdQueue      = 1024
	agingdMaxSources = 65536
)

// monitorConfig is the monitor configuration both binaries ship with:
// the experiment-standard pipeline with the default -history-limit.
func monitorConfig() aging.Config {
	cfg := aging.DefaultConfig()
	cfg.HistoryLimit = 4096
	return cfg
}

// detectConfig is the detector-set configuration the daemon derives from
// its flags (ingest.Config.DetectorConfig with zero Detect tuning).
func detectConfig() detect.Config { return detect.Config{Monitor: monitorConfig()} }

// fleetMachine is the bulk-fleet mix: mostly healthy machines, one in
// eight a slow leaker that drifts without crashing inside the trace.
func fleetMachine(ticks int) func(int) machineSpec {
	return func(i int) machineSpec {
		if i%8 == 7 {
			return machineSpec{Leak: 0.6, MaxTicks: ticks}
		}
		return machineSpec{Leak: 0, MaxTicks: ticks}
	}
}

// workloads is the benchmark's fixed workload table.
var workloads = []*Workload{
	{
		Name: "fleet-binary", Daemon: "agingd",
		Detectors: []string{detect.KindHolder}, Recorder: 64,
		Sources: 64, LagSamples: 8192,
		Frame: 256, Conns: 2, LagRate: 1e6,
		machine: fleetMachine(40960),
	},
	{
		Name: "fleet-text-lines", Daemon: "agingd",
		Detectors: []string{detect.KindHolder}, Recorder: 64,
		Sources: 4096, LagSamples: 32,
		Frame: 0, Conns: 2, LagRate: 1e5,
		// Every 256th machine, m00000 first, leaks to a crash within 6144
		// ticks: the detectors of those 16 leave warm-up (~1,350 samples)
		// and fire, so the detect, alert and gate counts are never 0. The
		// other 4080 stay at 512 samples, inside warm-up.
		machine: func(i int) machineSpec {
			if i%256 == 0 {
				return machineSpec{Leak: 9 + float64(i/256%5), MaxTicks: 6144}
			}
			return fleetMachine(512)(i)
		},
	},
	{
		Name: "restart-suite", Daemon: "agingd",
		Flags:     []string{"-detectors", "holder,entropy,adaptive", "-flight-recorder-depth", "0"},
		Detectors: []string{detect.KindHolder, detect.KindEntropy, detect.KindAdaptive},
		Sources:   256, Prefix: 2048, LagSamples: 1024,
		Frame: 256, Conns: 2, LagRate: 4.2e5,
		// A quarter of the machines leak fast enough to crash inside the
		// streamed continuation (crash ticks ~4000-6000 of 6144), so jumps,
		// phase changes and alerts fire.
		machine: func(i int) machineSpec {
			if i%4 == 3 {
				return machineSpec{Leak: 9 + float64(i%5), MaxTicks: 2048 + 4096}
			}
			return machineSpec{Leak: 0, MaxTicks: 2048 + 4096}
		},
	},
	{
		Name: "monitor-stdin", Daemon: "agingmon",
		Detectors: []string{detect.KindHolder}, Recorder: 64,
		Sources: 1, LagSamples: 1 << 16,
		Frame: 256, Conns: 1, LagRate: 2.7e5,
		// One slow leaker whose crash lands near the end of the trace.
		machine: func(int) machineSpec { return machineSpec{Leak: 0.05, MaxTicks: 1 << 20} },
	},
}

func lookupWorkload(name string) (*Workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// Inputs are one workload's generated inputs for one seed.
type Inputs struct {
	// IDs, Free and Swap hold each source's streamed trace.
	IDs  []string
	Free [][]float64
	Swap [][]float64
	// Prepared is the snapshot envelope the daemon restores
	// (restart-suite), and PreparedStates its per-source blobs.
	Prepared       []byte
	PreparedStates map[string][]byte
}

// Total returns the number of streamed samples.
func (in *Inputs) Total() int {
	n := 0
	for _, f := range in.Free {
		n += len(f)
	}
	return n
}

// machineSeed spreads machine seeds apart: source.NewSim seeds the
// workload driver from Seed+1, so adjacent seeds would share streams.
func machineSeed(seed int64, i int) int64 { return seed<<24 + int64(i)*2 }

// simulate steps machine i of w to its trace end or crash and returns
// its (free, swap) columns.
func simulate(w *Workload, seed int64, i int) (free, swap []float64, err error) {
	spec := w.machine(i)
	wcfg := workload.DefaultDriverConfig()
	srv := *wcfg.Server
	srv.LeakPagesPerTick = spec.Leak
	wcfg.Server = &srv
	sim, err := source.NewSim(source.SimConfig{
		Seed:     machineSeed(seed, i),
		Machine:  memsim.DefaultConfig(),
		Workload: wcfg,
		MaxTicks: spec.MaxTicks,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("machine %d: %w", i, err)
	}
	free = make([]float64, 0, spec.MaxTicks)
	swap = make([]float64, 0, spec.MaxTicks)
	for {
		it, err := sim.Next(context.Background())
		if err != nil {
			break // io.EOF at MaxTicks; a crashed machine yields nothing more
		}
		for _, p := range it.Pairs {
			free = append(free, p[0])
			swap = append(swap, p[1])
		}
		if it.Crash != memsim.CrashNone {
			break
		}
	}
	return free, swap, nil
}

// sourceID names machine i on the wire.
func sourceID(i int) string { return fmt.Sprintf("m%05d", i) }

// generate builds w's inputs for seed from public APIs only: memsim
// machines through source.NewSim and, for restart-suite, a snapshot
// prepared through detect.New → AddColumns → SaveState →
// ingest.EncodeSnapshot.
func generate(w *Workload, seed int64) (*Inputs, error) {
	in := &Inputs{
		IDs:  make([]string, w.Sources),
		Free: make([][]float64, w.Sources),
		Swap: make([][]float64, w.Sources),
	}
	var states map[string][]byte
	if w.Prefix > 0 {
		states = make(map[string][]byte, w.Sources)
	}
	var mu sync.Mutex
	err := parallel(w.Sources, func(i int) error {
		free, swap, err := simulate(w, seed, i)
		if err != nil {
			return err
		}
		id := sourceID(i)
		in.IDs[i] = id
		if w.Prefix > 0 {
			if len(free) <= w.Prefix {
				return fmt.Errorf("machine %d crashed at tick %d, inside the %d-sample prefix", i, len(free), w.Prefix)
			}
			set, err := detect.New(w.Detectors, detectConfig())
			if err != nil {
				return err
			}
			set.AddColumns(free[:w.Prefix], swap[:w.Prefix])
			blob, err := set.SaveState()
			if err != nil {
				return fmt.Errorf("prepare %s: %w", id, err)
			}
			mu.Lock()
			states[id] = blob
			mu.Unlock()
			free, swap = free[w.Prefix:], swap[w.Prefix:]
		}
		in.Free[i], in.Swap[i] = free, swap
		return nil
	})
	if err != nil {
		return nil, err
	}
	if states != nil {
		in.PreparedStates = states
		if in.Prepared, err = ingest.EncodeSnapshot(states); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// inputsKey fingerprints everything generate reads from w: a change to
// the workload table or its machine mix names a different cache file, so
// stale inputs are never reused.
func inputsKey(w *Workload) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%q %q %d %d %+v", w.Daemon, w.Detectors, w.Sources, w.Prefix, detectConfig())
	for i := 0; i < w.Sources; i++ {
		fmt.Fprintf(h, " %+v", w.machine(i))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// loadInputs returns w's inputs for seed from the cache directory,
// generating and caching them on a miss. Generation time is reported on
// stderr and counts in no metric.
func loadInputs(w *Workload, seed int64, cacheDir string) (*Inputs, error) {
	path := filepath.Join(cacheDir, fmt.Sprintf("%s-%d-%s.gob", w.Name, seed, inputsKey(w)))
	if f, err := os.Open(path); err == nil {
		defer f.Close()
		var in Inputs
		if err := gob.NewDecoder(f).Decode(&in); err == nil {
			return &in, nil
		}
	}
	in, err := generate(w, seed)
	if err != nil {
		return nil, fmt.Errorf("generate %s seed %d: %w", w.Name, seed, err)
	}
	if cacheDir == "" {
		return in, nil
	}
	if err := os.MkdirAll(cacheDir, 0o755); err != nil {
		return nil, err
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return nil, err
	}
	if err := gob.NewEncoder(f).Encode(in); err != nil {
		f.Close()
		return nil, errors.Join(err, os.Remove(tmp))
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	return in, os.Rename(tmp, path)
}

// parallel runs fn(0..n-1) on two workers (the benchmark box has two
// cores) and returns the first error.
func parallel(n int, fn func(i int) error) error {
	const workers = 2
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []error
	)
	next := make(chan int)
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := fn(i); err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return errors.Join(errs...)
}
