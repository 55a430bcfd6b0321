package experiment

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"agingmf/internal/aging"
	"agingmf/internal/cluster"
	"agingmf/internal/control"
	"agingmf/internal/memsim"
	"agingmf/internal/rejuv"
	"agingmf/internal/workload"
)

// E14 closes the loop the whole pipeline builds toward: the fleet
// rejuvenation controller (internal/control) consuming live detector
// verdicts and actuating proactive restarts, scored on the availability
// it buys. A fleet of simulated machines ages through three chaos
// channels — a slow leak, allocation-churn fragmentation, and a
// paging-churn survivor — under three arms:
//
//   - off:    no intervention; crashes cost CostModel.PerCrash ticks.
//   - on:     the Rejuvenator drives a phase-triggered policy per source
//     off the machines' own monitors, with consistent-hash ring arcs as
//     anti-affinity groups; each restart costs PerRejuvenation ticks.
//   - oracle: a clairvoyant controller reading the machine's internal
//     exhaustion state restarts at the last safe moment — the upper
//     bound a verdict-driven policy can approach.
//
// The experiment also audits the anti-affinity contract: no two restarts
// inside one ring arc may land within the stagger gap.

// rejuvArms lists the campaign arms in table order.
func rejuvArms() []string { return []string{"off", "on", "oracle"} }

// rejuvScenario is one aging channel of the rejuvenation campaign.
type rejuvScenario struct {
	// Name labels the scenario ("leak-crash", ...).
	Name string
	// Crash says whether the channel kills machines when unattended.
	Crash bool
	// Mem and Load describe the machine class and its workload.
	Mem  memsim.Config
	Load workload.DriverConfig
}

// rejuvScenarios returns the chaos matrix: two distinct run-to-crash
// channels and one rough-but-healthy control.
func rejuvScenarios() []rejuvScenario {
	// leak-crash: the classic slow leak (the shootout's leak channel) —
	// free memory ramps down over thousands of ticks until exhaustion.
	leak := memsim.DefaultConfig()
	leak.RAMPages = 16384
	leak.SwapPages = 6144
	leak.LowWatermark = 256
	leakLoad := workload.DefaultDriverConfig()
	leakLoad.Server.LeakPagesPerTick = 3.5

	// frag-crash: no leak at all — allocation churn fragments RAM until
	// the effective memory shrinks into paging and death. A different
	// trajectory shape (concave, accelerating) than the linear leak.
	frag := memsim.DefaultConfig()
	frag.RAMPages = 16384
	frag.SwapPages = 6144
	frag.LowWatermark = 256
	frag.FragPerMegaChurn = 600
	frag.FragCapFraction = 0.95
	fragLoad := workload.DefaultDriverConfig()
	fragLoad.Server = &memsim.ProcSpec{
		Name:           "server",
		BaseWorkingSet: 2048,
		ChurnPages:     160,
	}
	fragLoad.ClientRate = 1.2

	// churn-healthy: the shootout's deep-paging survivor — permanently
	// rough counters that can never exhaust RAM+swap. The floor scenario:
	// restarts here are pure waste, so the policy should stay quiet.
	churn := memsim.DefaultConfig()
	churn.RAMPages = 16384
	churn.SwapPages = 131072
	churn.LowWatermark = 512
	churn.ThrashPageRate = 1 << 20
	churn.ThrashTicks = 10000
	churnLoad := workload.DefaultDriverConfig()
	churnLoad.Server = &memsim.ProcSpec{
		Name:           "server",
		BaseWorkingSet: 2048,
		ChurnPages:     96,
	}
	churnLoad.MaxClients = 256

	return []rejuvScenario{
		{Name: "leak-crash", Crash: true, Mem: leak, Load: leakLoad},
		{Name: "frag-crash", Crash: true, Mem: frag, Load: fragLoad},
		{Name: "churn-healthy", Crash: false, Mem: churn, Load: churnLoad},
	}
}

// rejuvFleetSize is machines per scenario arm.
func rejuvFleetSize(cfg RunConfig) int {
	if cfg.Quick {
		return 6
	}
	return 12
}

// rejuvHorizon bounds one arm in global ticks.
func rejuvHorizon(cfg RunConfig) int {
	if cfg.Quick {
		return 24000
	}
	return 60000
}

// rejuvStaggerTicks is the anti-affinity gap between restarts sharing a
// ring arc, in ticks (the campaign clock runs one second per tick).
const rejuvStaggerTicks = 50

// rejuvMinUptime is the policy's minimum uptime between restarts of one
// source, in ticks — long enough to outlast the monitor's warmup so a
// fresh machine is never restarted on its own calibration noise.
const rejuvMinUptime = 2000

// rejuvNodes is the simulated cluster membership whose consistent-hash
// arcs become the anti-affinity groups.
func rejuvNodes() []string { return []string{"node-a", "node-b", "node-c"} }

// fleetMachine is one machine of a campaign arm: the simulated OS, its
// workload driver and its own aging monitor (restarted fresh on every
// reboot, planned or not).
type fleetMachine struct {
	id        string
	m         *memsim.Machine
	d         *workload.Driver
	mon       *aging.DualMonitor
	phase     aging.Phase
	downUntil int // global tick the current outage ends at
	upTicks   int
	crashes   int
	restarts  int
}

// resetMonitor gives the machine a fresh monitor after any reboot.
func (fm *fleetMachine) resetMonitor(moncfg aging.Config) error {
	mon, err := aging.NewDualMonitor(moncfg)
	if err != nil {
		return err
	}
	fm.mon = mon
	fm.phase = aging.PhaseHealthy
	return nil
}

// rejuvFleet builds one scenario fleet with per-machine seed streams.
func rejuvFleet(sc rejuvScenario, n int, seed int64, moncfg aging.Config) ([]*fleetMachine, error) {
	fleet := make([]*fleetMachine, 0, n)
	for i := 0; i < n; i++ {
		s := seed + int64(i)*101
		m, err := memsim.New(sc.Mem, rand.New(rand.NewSource(s)))
		if err != nil {
			return nil, fmt.Errorf("machine %d: %w", i, err)
		}
		src, err := makeSource(s + 1)
		if err != nil {
			return nil, fmt.Errorf("machine %d: %w", i, err)
		}
		d, err := workload.NewDriver(m, sc.Load, src, rand.New(rand.NewSource(s+2)))
		if err != nil {
			return nil, fmt.Errorf("machine %d: %w", i, err)
		}
		fm := &fleetMachine{id: fmt.Sprintf("m%02d", i), m: m, d: d}
		if err := fm.resetMonitor(moncfg); err != nil {
			return nil, err
		}
		fleet = append(fleet, fm)
	}
	return fleet, nil
}

// rejuvActuation records one controller restart for the stagger audit.
type rejuvActuation struct {
	arc  string
	tick int
}

// rejuvArmResult aggregates one (scenario, arm) cell.
type rejuvArmResult struct {
	availability  float64
	crashes       int
	rejuvenations int
	deferred      int
	actuations    []rejuvActuation
}

// oracleShouldRestart is the clairvoyant trigger, reading the machine's
// true internals — the bound a verdict-driven policy cannot beat, only
// approach. It restarts when either death channel is ticks away: total
// free headroom (RAM + swap) under 4% of capacity (exhaustion), or swap
// traffic past half the machine's thrash-detection rate (the hang
// detector needs it sustained above the full rate, so half is a safe
// early warning that never fires on machines whose rate is out of
// reach).
func oracleShouldRestart(m *memsim.Machine, mem memsim.Config) bool {
	c := m.Counters()
	page := float64(mem.PageSize)
	total := float64(mem.RAMPages+mem.SwapPages) * page
	swapFree := float64(mem.SwapPages)*page - c.UsedSwapBytes
	if c.FreeMemoryBytes+swapFree < 0.04*total {
		return true
	}
	return mem.ThrashPageRate > 0 && c.SwapTrafficPages > mem.ThrashPageRate/2
}

// runRejuvArm runs one scenario fleet under one arm for horizon ticks.
func runRejuvArm(sc rejuvScenario, arm string, cfg RunConfig, cost rejuv.CostModel) (rejuvArmResult, error) {
	n := rejuvFleetSize(cfg)
	horizon := rejuvHorizon(cfg)
	moncfg := aging.DefaultConfig()
	fleet, err := rejuvFleet(sc, n, cfg.Seed, moncfg)
	if err != nil {
		return rejuvArmResult{}, fmt.Errorf("%s/%s: %w", sc.Name, arm, err)
	}
	byID := make(map[string]*fleetMachine, n)
	for _, fm := range fleet {
		byID[fm.id] = fm
	}

	crashCost := int(cost.PerCrash)
	plannedCost := int(cost.PerRejuvenation)

	var res rejuvArmResult
	tick := 0 // shared campaign clock, one simulated second per tick

	// The controller arm runs the real control-plane stack: a Rejuvenator
	// with a phase-triggered policy per source, ring arcs as anti-affinity
	// groups, and a deterministic clock derived from the campaign tick.
	var rej *control.Rejuvenator
	if arm == "on" {
		ring := cluster.NewRing(64, rejuvNodes())
		epoch := time.Unix(0, 0)
		rej, err = control.NewRejuvenator(control.RejuvenatorConfig{
			Actuator: control.ActuatorFunc(func(id string) error {
				fm := byID[id]
				fm.restarts++
				fm.downUntil = tick + plannedCost
				fm.m.Reboot()
				if err := fm.d.OnReboot(); err != nil {
					return err
				}
				if err := fm.resetMonitor(moncfg); err != nil {
					return err
				}
				res.actuations = append(res.actuations, rejuvActuation{
					arc: ring.Owner(id), tick: tick,
				})
				return nil
			}),
			Policy: func(string) rejuv.Policy {
				return &control.PhasePolicy{Trigger: aging.PhaseAgingOnset, MinUptime: rejuvMinUptime}
			},
			Cost:       cost,
			Group:      func(id string) string { return ring.Owner(id) },
			StaggerGap: rejuvStaggerTicks * time.Second,
			Now:        func() time.Time { return epoch.Add(time.Duration(tick) * time.Second) },
		})
		if err != nil {
			return rejuvArmResult{}, fmt.Errorf("%s/%s: %w", sc.Name, arm, err)
		}
	}

	for ; tick < horizon; tick++ {
		for _, fm := range fleet {
			if tick < fm.downUntil {
				continue // down: rebooting after a crash or a planned restart
			}
			if arm == "oracle" && oracleShouldRestart(fm.m, sc.Mem) {
				fm.restarts++
				fm.downUntil = tick + plannedCost
				fm.m.Reboot()
				if err := fm.d.OnReboot(); err != nil {
					return rejuvArmResult{}, fmt.Errorf("%s/%s: %w", sc.Name, arm, err)
				}
				if err := fm.resetMonitor(moncfg); err != nil {
					return rejuvArmResult{}, err
				}
				continue
			}
			c, err := fm.d.Step()
			if err != nil { // the machine crashed this tick
				fm.crashes++
				fm.downUntil = tick + crashCost
				fm.m.Reboot()
				if err := fm.d.OnReboot(); err != nil {
					return rejuvArmResult{}, fmt.Errorf("%s/%s: %w", sc.Name, arm, err)
				}
				if err := fm.resetMonitor(moncfg); err != nil {
					return rejuvArmResult{}, err
				}
				continue
			}
			fm.upTicks++
			fm.mon.Add(c.FreeMemoryBytes, c.UsedSwapBytes)
			if rej == nil {
				continue
			}
			// Feed the controller the machine's verdict stream: phase
			// transitions as they fire, plus a per-tick heartbeat so a
			// stagger-deferred decision retries — the in-daemon analogue
			// is the continuous alert traffic of a busy source. Sample
			// carries the campaign tick (monotonic per source), so the
			// policy's MinUptime measures ticks since the last restart.
			if ph := fm.mon.Phase(); ph != fm.phase {
				rej.Handle(control.PhaseChange(fm.id, tick, fm.phase, ph))
				fm.phase = ph
			} else {
				rej.Handle(control.Alert{Source: fm.id, Kind: control.KindResume, Sample: tick})
			}
		}
	}

	for _, fm := range fleet {
		res.availability += float64(fm.upTicks)
		res.crashes += fm.crashes
		res.rejuvenations += fm.restarts
	}
	res.availability /= float64(n * horizon)
	if rej != nil {
		st := rej.Status()
		res.deferred = 0
		for _, s := range st.Sources {
			res.deferred += s.Deferred
		}
	}
	return res, nil
}

// staggerAudit checks the anti-affinity contract over one arm's
// actuations: per ring arc, the gap between consecutive restarts. It
// returns the minimum observed same-arc gap in ticks (horizon when an
// arc never restarted twice) and the number of simultaneous (gap zero)
// same-arc pairs — which the contract requires to be exactly zero.
func staggerAudit(acts []rejuvActuation, horizon int) (minGap, simultaneous int) {
	byArc := make(map[string][]int)
	for _, a := range acts {
		byArc[a.arc] = append(byArc[a.arc], a.tick)
	}
	minGap = horizon
	for _, ticks := range byArc {
		sort.Ints(ticks)
		for i := 1; i < len(ticks); i++ {
			gap := ticks[i] - ticks[i-1]
			if gap < minGap {
				minGap = gap
			}
			if gap == 0 {
				simultaneous++
			}
		}
	}
	return minGap, simultaneous
}

// RunRejuvenation executes E14: the closed-loop availability campaign.
func RunRejuvenation(cfg RunConfig) (Report, error) {
	cost := rejuv.DefaultCostModel()
	horizon := rejuvHorizon(cfg)

	summary := Table{
		Title: "fleet availability: policy off vs closed loop vs oracle",
		Header: []string{
			"scenario", "arm", "availability", "crashes",
			"restarts", "deferred",
		},
	}
	metrics := map[string]float64{}
	results := make(map[string]map[string]rejuvArmResult)

	for _, sc := range rejuvScenarios() {
		results[sc.Name] = make(map[string]rejuvArmResult)
		for _, arm := range rejuvArms() {
			res, err := runRejuvArm(sc, arm, cfg, cost)
			if err != nil {
				return Report{}, fmt.Errorf("rejuvenation: %w", err)
			}
			results[sc.Name][arm] = res
			summary.Rows = append(summary.Rows, []string{
				sc.Name, arm, fmt.Sprintf("%.4f", res.availability),
				fmtI(res.crashes), fmtI(res.rejuvenations), fmtI(res.deferred),
			})
			metrics[sc.Name+"_availability_"+arm] = res.availability
			metrics[sc.Name+"_crashes_"+arm] = float64(res.crashes)
			metrics[sc.Name+"_restarts_"+arm] = float64(res.rejuvenations)
		}
		minGap, simul := staggerAudit(results[sc.Name]["on"].actuations, horizon)
		metrics[sc.Name+"_min_same_arc_gap_ticks"] = float64(minGap)
		metrics[sc.Name+"_same_arc_simultaneous"] = float64(simul)
	}

	notes := []string{
		fmt.Sprintf("downtime pricing: crash = %d ticks, planned restart = %d ticks (DefaultCostModel); availability = up-ticks / (fleet x horizon)",
			int(cost.PerCrash), int(cost.PerRejuvenation)),
		fmt.Sprintf("anti-affinity: restarts sharing a consistent-hash ring arc (3 nodes) must sit >= %d ticks apart; min_same_arc_gap_ticks reports the audit (horizon = no arc restarted twice)",
			rejuvStaggerTicks),
		"oracle reads the machine's true exhaustion state — the availability ceiling a verdict-driven policy can approach but not beat",
	}
	for _, sc := range rejuvScenarios() {
		if !sc.Crash {
			continue
		}
		off := results[sc.Name]["off"].availability
		on := results[sc.Name]["on"].availability
		if on > off {
			notes = append(notes, fmt.Sprintf(
				"%s: closing the loop buys %.2f%% availability (%.4f -> %.4f)",
				sc.Name, 100*(on-off), off, on))
		}
	}
	return Report{
		ID:      "E14",
		Tables:  []Table{summary},
		Metrics: metrics,
		Notes:   notes,
	}, nil
}
