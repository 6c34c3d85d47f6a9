package smtsim_test

import (
	"math"
	"testing"

	"smtsim"
)

func run(t *testing.T, cfg smtsim.Config) smtsim.Result {
	t.Helper()
	res, err := smtsim.Run(cfg)
	if err != nil {
		t.Fatalf("Run(%+v): %v", cfg, err)
	}
	return res
}

func TestQuickstartRun(t *testing.T) {
	res := run(t, smtsim.Config{
		Benchmarks:      []string{"equake", "gzip"},
		IQSize:          64,
		Scheduler:       smtsim.TwoOpOOOD,
		MaxInstructions: 20_000,
	})
	if res.IPC <= 0 || res.Cycles <= 0 {
		t.Errorf("degenerate result: %+v", res)
	}
	if len(res.Threads) != 2 {
		t.Fatalf("threads = %d", len(res.Threads))
	}
	if res.Threads[0].Benchmark != "equake" || res.Threads[1].Benchmark != "gzip" {
		t.Error("benchmark binding wrong")
	}
}

func TestDefaultsApplied(t *testing.T) {
	res := run(t, smtsim.Config{Benchmarks: []string{"gzip"}, MaxInstructions: 5_000})
	if res.Committed < 5_000 {
		t.Error("default budget/IQ size run failed")
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := smtsim.Run(smtsim.Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := smtsim.Run(smtsim.Config{Benchmarks: []string{"doom3"}}); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestSchedulerRoundTrip(t *testing.T) {
	for _, s := range []smtsim.Scheduler{
		smtsim.Traditional, smtsim.TwoOpBlock, smtsim.TwoOpOOOD, smtsim.TwoOpOOODFiltered,
	} {
		back, err := smtsim.ParseScheduler(s.String())
		if err != nil || back != s {
			t.Errorf("round trip of %v failed", s)
		}
	}
	if _, err := smtsim.ParseScheduler("bogus"); err == nil {
		t.Error("garbage scheduler accepted")
	}
}

func TestDeterministicAcrossCalls(t *testing.T) {
	cfg := smtsim.Config{
		Benchmarks:      []string{"twolf", "gcc"},
		IQSize:          48,
		Scheduler:       smtsim.TwoOpBlock,
		MaxInstructions: 10_000,
		Seed:            7,
	}
	a := run(t, cfg)
	b := run(t, cfg)
	if a.Cycles != b.Cycles || a.Committed != b.Committed || a.IPC != b.IPC {
		t.Errorf("same config diverged: %+v vs %+v", a, b)
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	base := smtsim.Config{
		Benchmarks:      []string{"twolf", "gcc"},
		MaxInstructions: 10_000,
	}
	a := run(t, base)
	base.Seed = 99
	b := run(t, base)
	if a.Cycles == b.Cycles && a.Committed == b.Committed {
		t.Log("warning: different seeds produced identical cycle counts (possible but unlikely)")
	}
}

func TestMixesExposed(t *testing.T) {
	for _, threads := range []int{2, 3, 4} {
		lists, names, err := smtsim.Mixes(threads)
		if err != nil || len(lists) != 12 || len(names) != 12 {
			t.Fatalf("Mixes(%d): %v, %d lists", threads, err, len(lists))
		}
		for i, l := range lists {
			if len(l) != threads {
				t.Errorf("%s has %d benchmarks, want %d", names[i], len(l), threads)
			}
		}
	}
	if _, _, err := smtsim.Mixes(7); err == nil {
		t.Error("Mixes(7) accepted")
	}
}

func TestBenchmarkRoster(t *testing.T) {
	names := smtsim.BenchmarkNames()
	if len(names) == 0 {
		t.Fatal("empty roster")
	}
	for _, n := range names {
		class, err := smtsim.BenchmarkClass(n)
		if err != nil {
			t.Fatal(err)
		}
		if class != "low" && class != "med" && class != "high" {
			t.Errorf("%s class %q", n, class)
		}
	}
	if _, err := smtsim.BenchmarkClass("quake3"); err == nil {
		t.Error("unknown benchmark class accepted")
	}
}

func TestFairnessMetric(t *testing.T) {
	f, err := smtsim.FairnessMetric([]float64{1, 1}, []float64{2, 2})
	if err != nil || math.Abs(f-0.5) > 1e-9 {
		t.Errorf("fairness = %v, %v", f, err)
	}
	if _, err := smtsim.FairnessMetric([]float64{1}, []float64{}); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if hm := smtsim.HarmonicMean([]float64{2, 2}); math.Abs(hm-2) > 1e-9 {
		t.Errorf("harmonic mean = %v", hm)
	}
}

func TestSchedulerEffectOnTwoThreads(t *testing.T) {
	// The paper's core qualitative claim at 2 threads and 64 entries:
	// 2OP_BLOCK loses significantly to the traditional scheduler, and
	// out-of-order dispatch recovers most of the loss.
	base := smtsim.Config{
		Benchmarks:      []string{"equake", "gzip"},
		IQSize:          64,
		MaxInstructions: 40_000,
	}
	ipc := map[smtsim.Scheduler]float64{}
	for _, s := range smtsim.Schedulers {
		cfg := base
		cfg.Scheduler = s
		ipc[s] = run(t, cfg).IPC
	}
	if !(ipc[smtsim.TwoOpBlock] < ipc[smtsim.Traditional]) {
		t.Errorf("2OP_BLOCK (%.3f) did not lose to traditional (%.3f) at 2 threads",
			ipc[smtsim.TwoOpBlock], ipc[smtsim.Traditional])
	}
	if !(ipc[smtsim.TwoOpOOOD] > ipc[smtsim.TwoOpBlock]) {
		t.Errorf("OOO dispatch (%.3f) did not improve on 2OP_BLOCK (%.3f)",
			ipc[smtsim.TwoOpOOOD], ipc[smtsim.TwoOpBlock])
	}
}

func TestWatchdogConfigRuns(t *testing.T) {
	res := run(t, smtsim.Config{
		Benchmarks:      []string{"equake", "gzip"},
		Scheduler:       smtsim.TwoOpOOOD,
		Deadlock:        smtsim.DeadlockWatchdog,
		WatchdogLimit:   400,
		MaxInstructions: 10_000,
	})
	if res.Committed == 0 {
		t.Error("watchdog config produced no work")
	}
}

func TestDispatchBufferCapOverride(t *testing.T) {
	small := run(t, smtsim.Config{
		Benchmarks:        []string{"equake", "gzip"},
		Scheduler:         smtsim.TwoOpOOOD,
		DispatchBufferCap: 2,
		MaxInstructions:   20_000,
	})
	large := run(t, smtsim.Config{
		Benchmarks:        []string{"equake", "gzip"},
		Scheduler:         smtsim.TwoOpOOOD,
		DispatchBufferCap: 32,
		MaxInstructions:   20_000,
	})
	// A 2-entry buffer can expose almost no hidden ILP; 32 entries must
	// dispatch at least as many HDIs.
	if small.HDIDispatched > large.HDIDispatched {
		t.Errorf("HDI count did not grow with buffer: %d vs %d",
			small.HDIDispatched, large.HDIDispatched)
	}
}

func TestFilteredSchedulerRuns(t *testing.T) {
	res := run(t, smtsim.Config{
		Benchmarks:      []string{"equake", "gzip"},
		Scheduler:       smtsim.TwoOpOOODFiltered,
		MaxInstructions: 10_000,
	})
	if res.Committed == 0 {
		t.Error("filtered scheduler produced no work")
	}
}

func TestRoundRobinFetchOption(t *testing.T) {
	res := run(t, smtsim.Config{
		Benchmarks:      []string{"gcc", "gzip"},
		RoundRobinFetch: true,
		MaxInstructions: 10_000,
	})
	if res.Committed == 0 {
		t.Error("round-robin fetch produced no work")
	}
}

// TestLongMemoryLatencyCompletes runs a legal but extreme memory
// latency: a trip to memory takes 100k cycles, as long as the deadlock
// check's no-commit floor, so the check must scale with the latency
// rather than report a deadlock.
func TestLongMemoryLatencyCompletes(t *testing.T) {
	res := run(t, smtsim.Config{
		Benchmarks:      []string{"mcf", "gzip"},
		IQSize:          64,
		Scheduler:       smtsim.TwoOpOOOD,
		MemoryLatency:   100_000,
		MaxInstructions: 2_000,
	})
	if res.Committed == 0 {
		t.Errorf("nothing committed: %+v", res)
	}
}
