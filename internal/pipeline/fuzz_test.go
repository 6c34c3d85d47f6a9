package pipeline

import (
	"fmt"
	"testing"

	icore "smtsim/internal/core"
	"smtsim/internal/synth"
	"smtsim/internal/uop"
)

// commitRec identifies one committed instruction: its per-thread trace
// sequence number and fetch PC.
type commitRec struct {
	seq uint64
	pc  uint64
}

// fuzzProfile maps a 2-bit selector to one of the paper's three ILP
// classes.
func fuzzProfile(kind uint8, name string) synth.Profile {
	switch kind % 3 {
	case 0:
		return synth.LowILPProfile(name)
	case 1:
		return synth.MedILPProfile(name)
	default:
		return synth.HighILPProfile(name)
	}
}

// runFuzzConfig runs one (scheduler, wakeup) point of a fuzz case and
// returns the cycle count and per-thread committed streams. A sanitized
// core runs under the invariant sanitizer (test-wide testSanitize), so
// structural violations fail-stop here before the metamorphic comparison
// even happens; it also walks every stage every cycle. An unsanitized
// event-wakeup core is the production path, which skips the stages its
// horizons report idle.
func runFuzzConfig(t *testing.T, cfg Config, profiles []synth.Profile, seed uint64,
	budget uint64, sanitized bool) (cycles int64, streams [][]commitRec) {
	t.Helper()
	specs := make([]ThreadSpec, len(profiles))
	for i, p := range profiles {
		prog, err := synth.Compile(p, seed)
		if err != nil {
			t.Fatalf("compile %s: %v", p.Name, err)
		}
		specs[i] = ThreadSpec{Name: p.Name, Reader: prog.NewStream(seed + uint64(i))}
	}
	c, err := New(cfg, specs)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if !sanitized {
		c.disableSanitizer()
	}
	streams = make([][]commitRec, len(profiles))
	c.SetCommitHook(func(u *uop.UOp) {
		streams[u.Thread] = append(streams[u.Thread], commitRec{seq: u.Inst.Seq, pc: u.Inst.PC})
	})
	if _, err := c.Run(budget); err != nil {
		t.Fatalf("%s polling=%t sanitized=%t: %v", cfg.Policy, cfg.PollingWakeup, sanitized, err)
	}
	return c.Cycle(), streams
}

// FuzzPipeline is the metamorphic fuzz harness for the whole SMT
// pipeline. Each fuzz case draws a machine configuration (thread count,
// IQ size, deadlock mechanism, buffer sizes) and a synthetic workload
// mix, then runs it under all three dispatch policies and both wakeup
// disciplines, asserting the properties that hold regardless of
// schedule:
//
//  1. Event-driven wakeup is bit-identical to polling wakeup, and the
//     horizon-gated run to the every-stage walk: same cycle count and
//     same per-thread committed instruction streams (DESIGN.md §5, §12).
//  2. All three schedulers commit the same per-thread instruction
//     streams — dispatch order may differ, commit order may not. The
//     runs stop at different points, so the comparison is
//     prefix-equality.
//  3. Committed streams are exact replays of the trace: sequence
//     numbers count 0,1,2,... with no skip or duplicate, even across
//     watchdog flushes and misprediction squashes.
//
// The event and polling runs also execute under the cycle-level
// invariant sanitizer (internal/simsan), which fail-stops on structural
// corruption. A sanitized core walks every stage, so each policy also
// runs a third time on the production path, event wakeup with no
// sanitizer, where stages whose horizons report idle are skipped; that
// run must match the sanitized event run exactly.
func FuzzPipeline(f *testing.F) {
	// Seeds span 1-4 threads, both deadlock mechanisms, the IQ-size
	// range the paper sweeps, and all three ILP classes. All three
	// schedulers run inside every case.
	f.Add(uint8(1), uint8(0b00), uint8(0), uint8(16), uint16(64), uint16(450), uint64(1), uint16(800))
	f.Add(uint8(2), uint8(0b0001), uint8(0), uint8(16), uint16(32), uint16(450), uint64(2), uint16(800))
	f.Add(uint8(3), uint8(0b100100), uint8(0), uint8(8), uint16(48), uint16(300), uint64(3), uint16(600))
	f.Add(uint8(4), uint8(0b11100100), uint8(0), uint8(16), uint16(128), uint16(450), uint64(4), uint16(800))
	f.Add(uint8(4), uint8(0b01010101), uint8(1), uint8(4), uint16(32), uint16(600), uint64(5), uint16(600))
	f.Add(uint8(2), uint8(0b1010), uint8(1), uint8(8), uint16(16), uint16(240), uint64(6), uint16(500))
	f.Add(uint8(3), uint8(0b010010), uint8(0), uint8(32), uint16(96), uint16(450), uint64(7), uint16(700))
	f.Add(uint8(1), uint8(0b10), uint8(1), uint8(2), uint16(8), uint16(900), uint64(8), uint16(400))

	f.Fuzz(func(t *testing.T, nThreads, mixBits, deadlock, dabCap uint8,
		iqSize, wdLimit uint16, seed uint64, budget uint16) {
		threads := 1 + int(nThreads)%4
		profiles := make([]synth.Profile, threads)
		for i := range profiles {
			kind := mixBits >> (2 * i)
			profiles[i] = fuzzProfile(kind, fmt.Sprintf("synth%d", i))
		}

		cfg := DefaultConfig()
		cfg.IQSize = 8 + int(iqSize)%121 // [8,128]; never below machine width
		cfg.DispatchBufCap = 1 + int(dabCap)%32
		if deadlock%2 == 0 {
			cfg.Deadlock = DeadlockDAB
		} else {
			cfg.Deadlock = DeadlockWatchdog
			// Stay in the paper's suggested range (2-3x memory latency);
			// pathological limits turn into livelock, not bugs.
			cfg.WatchdogLimit = 200 + int64(wdLimit)%800
		}
		commits := 300 + uint64(budget)%1200

		type run struct {
			policy  icore.Policy
			cycles  int64
			streams [][]commitRec
		}
		var runs []run
		for _, policy := range []icore.Policy{icore.InOrder, icore.TwoOpBlock, icore.TwoOpOOOD} {
			cfg.Policy = policy

			cfg.PollingWakeup = false
			evCycles, evStreams := runFuzzConfig(t, cfg, profiles, seed, commits, true)
			gaCycles, gaStreams := runFuzzConfig(t, cfg, profiles, seed, commits, false)
			cfg.PollingWakeup = true
			poCycles, poStreams := runFuzzConfig(t, cfg, profiles, seed, commits, true)

			// Property 1: wakeup disciplines are bit-identical, and
			// horizon gating skips no work.
			assertSameRun(t, policy, "polling", evCycles, evStreams, poCycles, poStreams)
			assertSameRun(t, policy, "gated", evCycles, evStreams, gaCycles, gaStreams)

			// Property 3: the committed stream replays the trace exactly.
			for tid, s := range evStreams {
				for i, r := range s {
					if r.seq != uint64(i) {
						t.Fatalf("%s thread %d: commit %d has trace seq %d (skip or duplicate)",
							policy, tid, i, r.seq)
					}
				}
			}

			runs = append(runs, run{policy: policy, cycles: evCycles, streams: evStreams})
		}

		// Property 2: schedulers agree on every per-thread committed
		// stream, up to the shorter run (the stopping rule fires at
		// different cycles under different schedules).
		base := runs[0]
		for _, r := range runs[1:] {
			for tid := range base.streams {
				n := min(len(base.streams[tid]), len(r.streams[tid]))
				for i := 0; i < n; i++ {
					if base.streams[tid][i] != r.streams[tid][i] {
						t.Fatalf("schedulers %s and %s diverge at thread %d commit %d: %+v vs %+v",
							base.policy, r.policy, tid, i, base.streams[tid][i], r.streams[tid][i])
					}
				}
			}
		}
	})
}

// assertSameRun requires a run to match the sanitized event-wakeup run
// of the same case: the same cycle count and the same per-thread
// committed streams.
func assertSameRun(t *testing.T, policy icore.Policy, name string,
	evCycles int64, evStreams [][]commitRec, cycles int64, streams [][]commitRec) {
	t.Helper()
	if evCycles != cycles {
		t.Errorf("%s: cycles diverge: event %d, %s %d", policy, evCycles, name, cycles)
	}
	for tid := range evStreams {
		if len(evStreams[tid]) != len(streams[tid]) {
			t.Fatalf("%s thread %d: commit counts diverge: event %d, %s %d",
				policy, tid, len(evStreams[tid]), name, len(streams[tid]))
		}
		for i, r := range evStreams[tid] {
			if r != streams[tid][i] {
				t.Fatalf("%s thread %d: commit %d diverges: event %+v, %s %+v",
					policy, tid, i, r, name, streams[tid][i])
			}
		}
	}
}
