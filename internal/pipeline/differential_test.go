package pipeline

import (
	"fmt"
	"testing"

	icore "smtsim/internal/core"
	"smtsim/internal/iq"
	"smtsim/internal/metrics"
)

// differentialMix is the 4-thread mix both wakeup modes run in the
// differential tests.
var differentialMix = []string{"equake", "twolf", "gcc", "gzip"}

// TestWakeupDifferential proves the event-driven wakeup is bit-identical
// to the legacy per-cycle polling implementation: the same 4-thread mix,
// run both ways, must produce exactly equal cycle counts, per-thread
// committed counts, and IQ residency/occupancy statistics — for all
// three schedulers at IQ sizes 32 and 64. Any divergence in the wakeup
// rewrite (a missed broadcast, a stale counter, a reordered ready list)
// shows up here as a cycle-count mismatch.
func TestWakeupDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential cross-check is not short")
	}
	for _, policy := range []icore.Policy{icore.InOrder, icore.TwoOpBlock, icore.TwoOpOOOD} {
		for _, iqSize := range []int{32, 64} {
			t.Run(fmt.Sprintf("%s/iq%d", policy, iqSize), func(t *testing.T) {
				t.Parallel()
				cfg := DefaultConfig()
				cfg.Policy = policy
				cfg.IQSize = iqSize
				assertWakeupIdentical(t, cfg, 7, 0)
			})
		}
	}
}

// TestWakeupDifferentialVariants covers the paths the base matrix does
// not: the thread-rotating issue arbiter (the event mode reorders its
// ready list with a bucket pass instead of a sort), the watchdog
// whole-pipeline flush, the FLUSH fetch gate's partial squash with
// rename rollback — the cases where stale consumer-list entries and
// recycled UOps could corrupt an unsound implementation — and a warmup
// phase whose statistics reset must leave both modes in step.
func TestWakeupDifferentialVariants(t *testing.T) {
	if testing.Short() {
		t.Skip("differential cross-check is not short")
	}
	base := DefaultConfig()
	base.IQSize = 32
	base.Policy = icore.TwoOpOOOD
	variants := map[string]struct {
		mutate func(*Config)
		warmup uint64
	}{
		"thread-rotate-select": {mutate: func(c *Config) { c.Select = iq.ThreadRotate }},
		"watchdog":             {mutate: func(c *Config) { c.Deadlock = DeadlockWatchdog }},
		"gate-flush":           {mutate: func(c *Config) { c.FetchGate = GateFlush }},
		"warmup":               {mutate: func(*Config) {}, warmup: 5_000},
	}
	for name, v := range variants {
		cfg := base
		v.mutate(&cfg)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			assertWakeupIdentical(t, cfg, 11, v.warmup)
		})
	}
}

// runDifferentialMix runs differentialMix in the given wakeup mode:
// warmup instructions first, then until some thread commits 20k.
// Per-thread seeds are derived from the run seed as the public
// smtsim.Run derives them.
func runDifferentialMix(t *testing.T, cfg Config, polling bool, seed, warmup uint64) metrics.Results {
	t.Helper()
	cfg.PollingWakeup = polling
	specs := make([]ThreadSpec, len(differentialMix))
	for i, name := range differentialMix {
		specs[i] = ThreadSpec{Name: name, Reader: benchStream(t, name, seed^(uint64(i+1)*0x9E3779B97F4A7C15))}
	}
	c, err := New(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Warmup(warmup); err != nil {
		t.Fatalf("polling=%t: %v", polling, err)
	}
	res, err := c.Run(20_000)
	if err != nil {
		t.Fatalf("polling=%t: %v", polling, err)
	}
	return res
}

// assertWakeupIdentical runs one configuration in both wakeup modes and
// compares their statistics. Both runs execute under the invariant
// sanitizer (test-wide testSanitize): any structural corruption fails
// the run directly, in addition to the statistical comparison below.
// The checker is read-only, so it cannot perturb the bit-identity being
// asserted.
func assertWakeupIdentical(t *testing.T, cfg Config, seed, warmup uint64) {
	t.Helper()
	re := runDifferentialMix(t, cfg, false, seed, warmup)
	rp := runDifferentialMix(t, cfg, true, seed, warmup)

	if re.Cycles != rp.Cycles {
		t.Errorf("cycles diverge: event %d, polling %d", re.Cycles, rp.Cycles)
	}
	if re.Committed != rp.Committed {
		t.Errorf("total committed diverge: event %d, polling %d", re.Committed, rp.Committed)
	}
	if re.IQResidency != rp.IQResidency {
		t.Errorf("IQ residency diverges: event %v, polling %v", re.IQResidency, rp.IQResidency)
	}
	if re.IQOccupancy != rp.IQOccupancy {
		t.Errorf("IQ occupancy diverges: event %v, polling %v", re.IQOccupancy, rp.IQOccupancy)
	}
	if re.DispatchStallAllNDI != rp.DispatchStallAllNDI ||
		re.DispatchStallNDIWeak != rp.DispatchStallNDIWeak ||
		re.DispatchStallAllAny != rp.DispatchStallAllAny {
		t.Errorf("dispatch stall stats diverge: event %+v/%+v/%+v, polling %+v/%+v/%+v",
			re.DispatchStallAllNDI, re.DispatchStallNDIWeak, re.DispatchStallAllAny,
			rp.DispatchStallAllNDI, rp.DispatchStallNDIWeak, rp.DispatchStallAllAny)
	}
	if len(re.Threads) != len(rp.Threads) {
		t.Fatalf("thread count diverges: event %d, polling %d", len(re.Threads), len(rp.Threads))
	}
	for i := range re.Threads {
		if re.Threads[i].Committed != rp.Threads[i].Committed {
			t.Errorf("thread %d (%s) committed diverges: event %d, polling %d",
				i, re.Threads[i].Benchmark, re.Threads[i].Committed, rp.Threads[i].Committed)
		}
		if re.Threads[i].IPC != rp.Threads[i].IPC {
			t.Errorf("thread %d (%s) IPC diverges: event %v, polling %v",
				i, re.Threads[i].Benchmark, re.Threads[i].IPC, rp.Threads[i].IPC)
		}
	}
}
