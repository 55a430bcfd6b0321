package agingmf_test

import (
	"context"
	"math"
	"testing"

	"agingmf"
)

func TestFacadeDualMonitorAndPredictor(t *testing.T) {
	dm, err := agingmf.NewDualMonitor(agingmf.DefaultMonitorConfig())
	if err != nil {
		t.Fatalf("NewDualMonitor: %v", err)
	}
	if dm.Phase() != agingmf.PhaseHealthy {
		t.Errorf("initial dual phase = %v", dm.Phase())
	}
	free, err := agingmf.FBM(2048, 0.6, agingmf.NewRand(21))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range free {
		dm.Add(v, float64(i))
	}
	if dm.SamplesSeen() != len(free) {
		t.Errorf("samples seen = %d", dm.SamplesSeen())
	}

	pred, err := agingmf.NewCrashPredictor(agingmf.DefaultPredictorConfig(1e9))
	if err != nil {
		t.Fatalf("NewCrashPredictor: %v", err)
	}
	for i, v := range free {
		pred.Add(v, float64(i))
	}
	if _, ok := pred.Predict(); ok && pred.Phase() == agingmf.PhaseHealthy {
		t.Error("prediction issued while healthy")
	}
}

func TestFacadeExtensionEstimators(t *testing.T) {
	xs, err := agingmf.FBM(1<<13, 0.5, agingmf.NewRand(22))
	if err != nil {
		t.Fatal(err)
	}
	hig, err := agingmf.Higuchi(xs, 0)
	if err != nil {
		t.Fatalf("Higuchi: %v", err)
	}
	if hig.H < 1 || hig.H > 2 {
		t.Errorf("Higuchi dimension = %v, want in [1,2]", hig.H)
	}
	inc := make([]float64, len(xs)-1)
	for i := range inc {
		inc[i] = xs[i+1] - xs[i]
	}
	per, err := agingmf.HurstPeriodogram(inc)
	if err != nil {
		t.Fatalf("HurstPeriodogram: %v", err)
	}
	if math.Abs(per.H-0.5) > 0.2 {
		t.Errorf("periodogram H = %v, want ~0.5", per.H)
	}
	sf, err := agingmf.StructureFunction(xs, []float64{1, 2, 3})
	if err != nil {
		t.Fatalf("StructureFunction: %v", err)
	}
	if sag, err := agingmf.ZetaConcavity(sf); err != nil || math.Abs(sag) > 0.2 {
		t.Errorf("fBm zeta concavity = %v, %v", sag, err)
	}
}

func TestFacadeFaultInjectionAndReplay(t *testing.T) {
	machine, err := agingmf.NewMachine(agingmf.DefaultMachineConfig(), agingmf.NewRand(23))
	if err != nil {
		t.Fatal(err)
	}
	pid, err := machine.Spawn(agingmf.ProcSpec{Name: "victim", BaseWorkingSet: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := machine.InjectLeakBurst(pid, 500); err != nil {
		t.Fatalf("InjectLeakBurst: %v", err)
	}
	if n, err := machine.InjectFragmentation(200); err != nil || n != 200 {
		t.Fatalf("InjectFragmentation: %v, %v", n, err)
	}
	if err := machine.SetLeakRate(pid, 2); err != nil {
		t.Fatalf("SetLeakRate: %v", err)
	}

	src, err := agingmf.NewReplaySource(agingmf.SeriesFromValues("load", []float64{1, 0.5}), true)
	if err != nil {
		t.Fatalf("NewReplaySource: %v", err)
	}
	if src.Intensity(3) != 0.5 {
		t.Errorf("replay intensity = %v", src.Intensity(3))
	}
}

func TestFacadeEWMAWelchDiurnalFleet(t *testing.T) {
	// EWMA chart through the facade.
	chart, err := agingmf.NewEWMAChart(0.1, 4, 100, true)
	if err != nil {
		t.Fatalf("NewEWMAChart: %v", err)
	}
	for i := 0; i < 200; i++ {
		chart.Step(1)
	}
	// EWMA detector inside the monitor.
	cfg := agingmf.DefaultMonitorConfig()
	cfg.Detector = agingmf.DetectEWMA
	if _, err := agingmf.NewMonitor(cfg); err != nil {
		t.Fatalf("EWMA monitor: %v", err)
	}
	// Welch PSD.
	xs, err := agingmf.FGNDaviesHarte(4096, 0.6, agingmf.NewRand(31))
	if err != nil {
		t.Fatal(err)
	}
	psd, err := agingmf.WelchPSD(xs, 256)
	if err != nil {
		t.Fatalf("WelchPSD: %v", err)
	}
	if len(psd) != 129 {
		t.Errorf("psd bins = %d", len(psd))
	}
	// Diurnal source.
	src, err := agingmf.NewDiurnalSource(1000, 0.3, 0)
	if err != nil {
		t.Fatalf("NewDiurnalSource: %v", err)
	}
	if v := src.Intensity(500); v < 0.29 || v > 0.31 {
		t.Errorf("trough intensity = %v", v)
	}
	// Fleet runner.
	mcfg := agingmf.DefaultMachineConfig()
	mcfg.RAMPages = 4096
	mcfg.SwapPages = 2048
	wcfg := agingmf.DefaultWorkload()
	wcfg.Server.BaseWorkingSet = 512
	wcfg.Server.LeakPagesPerTick = 8
	runs, err := agingmf.RunFleet(context.Background(), agingmf.FleetConfig{
		Machine:  mcfg,
		Workload: wcfg,
		Collect:  agingmf.CollectConfig{TicksPerSample: 1, MaxTicks: 5000, StopOnCrash: true},
		Seeds:    []int64{1, 2},
	})
	if err != nil {
		t.Fatalf("RunFleet: %v", err)
	}
	if len(runs) != 2 {
		t.Errorf("fleet runs = %d", len(runs))
	}
}

func TestFacadeSaveRestore(t *testing.T) {
	mon, err := agingmf.NewMonitor(agingmf.DefaultMonitorConfig())
	if err != nil {
		t.Fatal(err)
	}
	xs, err := agingmf.FBM(3000, 0.6, agingmf.NewRand(41))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range xs {
		mon.Add(v)
	}
	blob, err := mon.SaveState()
	if err != nil {
		t.Fatalf("SaveState: %v", err)
	}
	back, err := agingmf.RestoreMonitor(blob)
	if err != nil {
		t.Fatalf("RestoreMonitor: %v", err)
	}
	if back.SamplesSeen() != mon.SamplesSeen() || back.Phase() != mon.Phase() {
		t.Error("restored monitor state differs")
	}
}

func TestFacadeRejuvenationExtensions(t *testing.T) {
	model := agingmf.HuangModel{
		RateDegrade: 1.0 / 240, RateFail: 1.0 / 48,
		RateRepair: 1.0 / 8, RateRejuv: 1, RateRestart: 30,
	}
	best, avail, err := agingmf.OptimalPeriodicInterval(model, 1, 1000, 50)
	if err != nil {
		t.Fatalf("OptimalPeriodicInterval: %v", err)
	}
	if best <= 0 || avail <= 0 || avail >= 1 {
		t.Errorf("best=%v avail=%v", best, avail)
	}
	cm := agingmf.DefaultCostModel()
	cfg := agingmf.RejuvenationEvalConfig{Horizon: 1000, CrashDowntime: 100, RejuvDowntime: 10}
	out := agingmf.RejuvenationOutcome{Crashes: 2, DownTicks: 200, UpTicks: 800}
	if cm.Cost(out, cfg) <= 0 {
		t.Error("crashy outcome priced at zero")
	}
}
