package pipeline

import (
	"strings"
	"testing"

	icore "smtsim/internal/core"
	"smtsim/internal/uop"
)

// commitRecord is one committed instruction's identity and timing — the
// tuple that must match for two runs to count as bit-identical.
type commitRecord struct {
	thread int
	pc     uint64
	gseq   uint64
	cycle  int64
}

// runCommitStream drives a 4-thread Table 1 mix to maxCommit commits on
// a production (unsanitized) core and returns the full commit stream
// plus the final results. forcePlain selects the ungated reference walk
// over the horizon-gated step.
func runCommitStream(t *testing.T, policy icore.Policy, forcePlain bool, maxCommit uint64) ([]commitRecord, map[string]float64) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Policy = policy
	c, err := New(cfg, []ThreadSpec{
		{Name: "equake", Reader: benchStream(t, "equake", 11)},
		{Name: "twolf", Reader: benchStream(t, "twolf", 12)},
		{Name: "gcc", Reader: benchStream(t, "gcc", 13)},
		{Name: "gzip", Reader: benchStream(t, "gzip", 14)},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.disableSanitizer() // unsanitized, a gated core really skips idle stages
	c.forcePlain = forcePlain
	var stream []commitRecord
	c.SetCommitHook(func(u *uop.UOp) {
		stream = append(stream, commitRecord{thread: u.Thread, pc: u.Inst.PC, gseq: u.GSeq, cycle: c.cycle})
	})
	res, err := c.Run(maxCommit)
	if err != nil {
		t.Fatal(err)
	}
	return stream, map[string]float64{
		"cycles":       float64(res.Cycles),
		"committed":    float64(res.Committed),
		"ipc":          res.IPC,
		"iq-occupancy": res.IQOccupancy,
	}
}

// TestHorizonGatingMatchesPlainWalk runs a long mixed workload twice —
// once through the horizon-gated step, once through the plain every-
// stage walk — and requires bit-identical commit streams (thread, PC,
// sequence number, and commit cycle of every instruction) and identical
// occupancy statistics. This is the end-to-end differential proof that
// stage gating never skips work: any stale horizon would shift at least
// one commit cycle.
func TestHorizonGatingMatchesPlainWalk(t *testing.T) {
	if testing.Short() {
		t.Skip("long differential run")
	}
	for _, policy := range []icore.Policy{icore.TwoOpOOOD, icore.TwoOpBlock} {
		t.Run(policy.String(), func(t *testing.T) {
			const budget = 30_000
			gated, gatedStats := runCommitStream(t, policy, false, budget)
			plain, plainStats := runCommitStream(t, policy, true, budget)
			if len(gated) != len(plain) {
				t.Fatalf("commit stream lengths diverge: gated %d, plain %d", len(gated), len(plain))
			}
			for i := range gated {
				if gated[i] != plain[i] {
					t.Fatalf("commit %d diverges: gated %+v, plain %+v", i, gated[i], plain[i])
				}
			}
			for k, g := range gatedStats {
				if p := plainStats[k]; g != p {
					t.Errorf("%s diverges: gated %v, plain %v", k, g, p)
				}
			}
		})
	}
}

// TestStaleWritebackHorizonCaught corrupts the event wheel's occupancy
// bitmap — the writeback stage's activity horizon — exactly one cycle
// before a completion is due, and requires the sanitizer to report the
// stale horizon on that very cycle. This pins the detection latency the
// horizon contract promises: a predicate that hides real work is caught
// within one cycle, not whenever results later diverge.
func TestStaleWritebackHorizonCaught(t *testing.T) {
	c, _ := sanitizedCore(t)
	// Find the next pending completion and stop the cycle before it.
	due, ok := c.events.nextDue(c.cycle)
	for i := 0; !ok && i < 10_000; i++ {
		c.Step()
		due, ok = c.events.nextDue(c.cycle)
	}
	if !ok {
		t.Fatal("no pending completion events after warmup")
	}
	for c.cycle < due-1 {
		c.Step()
	}
	if d, _ := c.events.nextDue(c.cycle); d != due {
		t.Fatalf("completion at %d drained while advancing to %d", due, c.cycle)
	}
	s := due & c.events.mask
	c.events.occ[s>>6] &^= 1 << (uint(s) & 63)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("sanitizer did not catch the corrupted writeback horizon")
		}
		err, isErr := r.(error)
		if !isErr || !strings.Contains(err.Error(), "stale writeback horizon") {
			t.Fatalf("unexpected panic: %v", r)
		}
		if c.cycle != due {
			t.Errorf("violation reported at cycle %d, corrupted event due at %d", c.cycle, due)
		}
	}()
	c.Step()
}

// TestStaleRenameHorizonCaught pushes the rename horizon into the far
// future while the front end keeps delivering instructions, and requires
// the sanitizer to flag the first cycle rename performs work the stale
// horizon claimed could not exist.
func TestStaleRenameHorizonCaught(t *testing.T) {
	c, _ := sanitizedCore(t)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("sanitizer did not catch the corrupted rename horizon")
		}
		err, isErr := r.(error)
		if !isErr || !strings.Contains(err.Error(), "stale rename horizon") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	for i := 0; i < 1_000; i++ {
		// Re-corrupt each cycle: rename itself recomputes the horizon
		// whenever it runs, so the corruption must be standing to prove
		// the verifier catches the first cycle with real rename work.
		c.renameHorizon = c.cycle + farFuture/2
		c.Step()
	}
	t.Fatal("rename performed no work in 1000 corrupted cycles")
}

// TestStaleFetchHorizonCaught is the fetch-stage analogue.
func TestStaleFetchHorizonCaught(t *testing.T) {
	c, _ := sanitizedCore(t)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("sanitizer did not catch the corrupted fetch horizon")
		}
		err, isErr := r.(error)
		if !isErr || !strings.Contains(err.Error(), "stale fetch horizon") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	for i := 0; i < 1_000; i++ {
		c.fetchHorizon = c.cycle + farFuture/2
		c.Step()
	}
	t.Fatal("fetch performed no work in 1000 corrupted cycles")
}
