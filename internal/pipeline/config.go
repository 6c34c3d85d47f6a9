// Package pipeline assembles the full SMT processor model: an 8-wide
// machine with the Table 1 configuration, ticked one cycle at a time in
// reverse pipeline order (commit, writeback, issue, dispatch, rename,
// fetch). The dispatch stage is pluggable (package core), which is where
// the paper's three designs differ; everything else is held identical
// across comparisons, as in the paper's methodology.
package pipeline

import (
	"fmt"

	"smtsim/internal/cache"
	"smtsim/internal/core"
	"smtsim/internal/fetch"
	"smtsim/internal/iq"
)

// DeadlockMechanism selects how out-of-order dispatch guards against the
// Section 4 deadlock scenario.
type DeadlockMechanism uint8

const (
	// DeadlockDAB uses the deadlock-avoidance buffer (the paper's
	// evaluated mechanism): the ROB-oldest instruction bypasses a full
	// IQ into a small RAM buffer and issues from there with precedence.
	DeadlockDAB DeadlockMechanism = iota
	// DeadlockWatchdog uses the watchdog-timer alternative: on dispatch
	// starvation, flush all in-flight instructions and refetch from the
	// ROB-oldest PCs.
	DeadlockWatchdog
	// DeadlockNone disables both mechanisms; the simulator's safety net
	// then reports a detected deadlock as an error. Used by tests that
	// demonstrate the hazard is real.
	DeadlockNone
)

// String names the mechanism.
func (m DeadlockMechanism) String() string {
	switch m {
	case DeadlockDAB:
		return "dab"
	case DeadlockWatchdog:
		return "watchdog"
	case DeadlockNone:
		return "none"
	}
	return fmt.Sprintf("deadlock(%d)", uint8(m))
}

// Config is the machine configuration. DefaultConfig returns Table 1;
// sweeps vary IQSize, Policy, and the thread count implied by the
// workload.
type Config struct {
	// Width is the machine width: fetch, rename/dispatch, issue, and
	// commit bandwidth per cycle (Table 1: 8).
	Width int
	// FetchThreads bounds how many threads supply instructions in one
	// cycle (the baseline fetches from two threads per cycle).
	FetchThreads int
	// FetchPolicy selects the fetch thread-selection policy.
	FetchPolicy fetch.Policy
	// FetchGate layers a miss-driven gating policy over the selector
	// (GateNone in the paper's baseline; see gating.go).
	FetchGate FetchGate

	// IQSize is the shared issue-queue capacity (the paper sweeps
	// 32..128).
	IQSize int
	// IQPartition optionally fixes the entry-type mix (entries with 0,
	// 1, and 2 tag comparators). When zero, the policy chooses: a
	// uniform queue of IQSize entries for the paper's designs, or
	// DefaultPartition(IQSize) for the tag-elimination policies.
	IQPartition iq.Partition
	// Select orders ready instructions at issue (default oldest-first,
	// the paper's policy).
	Select iq.SelectPolicy
	// PerThreadIQCap statically partitions the queue: each thread may
	// hold at most this many entries (0 = fully shared, the paper's
	// configuration; Raasch & Reinhardt-style partitioning otherwise).
	PerThreadIQCap int
	// Policy is the dispatch policy under study.
	Policy core.Policy
	// Deadlock selects the OOOD deadlock mechanism.
	Deadlock DeadlockMechanism
	// WatchdogLimit is the watchdog countdown in cycles; the paper
	// suggests 2-3x the memory latency. Used when Deadlock ==
	// DeadlockWatchdog.
	WatchdogLimit int64

	// ROBPerThread and LSQPerThread size the per-thread windows
	// (Table 1: 96 and 48).
	ROBPerThread int
	LSQPerThread int
	// IntRegs and FpRegs size the shared physical register files
	// (Table 1: 256 each).
	IntRegs int
	FpRegs  int

	// DispatchBufCap is the per-thread renamed-instruction (dispatch)
	// buffer capacity — the window out-of-order dispatch scans for HDIs.
	DispatchBufCap int
	// FetchQueueCap is the per-thread fetch/decode queue capacity.
	FetchQueueCap int

	// FrontEndDelay is the number of cycles between fetch and rename
	// eligibility, modeling the 5-stage front end.
	FrontEndDelay int64
	// RedirectPenalty is the additional fetch-resume delay after a
	// mispredicted branch resolves (register read depth + redirect).
	RedirectPenalty int64
	// FlushRefill is the fetch-resume delay after a watchdog flush.
	FlushRefill int64

	// MSHRs bounds the core's outstanding L1 data-cache misses (miss
	// status holding registers): a load that would miss while all MSHRs
	// are busy cannot issue and retries. Zero models unlimited MSHRs
	// (the paper-era trace-driven simplification, and the default).
	MSHRs int

	// Hierarchy, when non-nil, supplies the memory hierarchy instead of
	// a private cache.DefaultHierarchy — the hook the CMP composition
	// uses to share an L2 between cores.
	Hierarchy *cache.Hierarchy

	// PollingWakeup selects the legacy per-cycle polling wakeup: issue
	// re-scans every IQ entry against the register file each cycle, and
	// NDI/HDI classification re-polls operand readiness. The default
	// (false) is event-driven wakeup — register writeback broadcasts to
	// per-register consumer lists, which is O(width) per cycle instead of
	// O(IQ·sources). The two produce bit-identical simulations (see
	// DESIGN.md §5); the flag exists for the differential cross-check.
	PollingWakeup bool

	// MaxCycles caps the simulation as a safety net (0 = default cap:
	// per budgeted instruction, 400 cycles or two memory accesses,
	// whichever is longer, plus 10M).
	MaxCycles int64
	// StallLimit is the no-commit cycle count treated as a deadlock by
	// the safety net (0 = default: 100k cycles or 64 memory accesses,
	// whichever is longer).
	StallLimit int64

	// Sanitize enables the cycle-granular invariant sanitizer (package
	// internal/simsan): after every Step, the machine's structural
	// contracts — ROB program order, wakeup-counter/consumer-list
	// agreement, physical-register conservation, the DAB's oldest-and-
	// ready property, NDI classification — are re-derived from scratch
	// and any divergence surfaces as a structured error from Run. The
	// checker is read-only, so a clean sanitized run is bit-identical to
	// an unsanitized one; it costs roughly an order of magnitude in
	// simulation speed and is off by default (and always on in the
	// pipeline package's tests).
	Sanitize bool
}

// DefaultConfig returns the Table 1 machine with a 64-entry IQ and the
// traditional scheduler.
func DefaultConfig() Config {
	return Config{
		Width:           8,
		FetchThreads:    2,
		FetchPolicy:     fetch.ICount,
		IQSize:          64,
		Policy:          core.InOrder,
		Deadlock:        DeadlockDAB,
		WatchdogLimit:   450, // 3x the 150-cycle memory latency
		ROBPerThread:    96,
		LSQPerThread:    48,
		IntRegs:         256,
		FpRegs:          256,
		DispatchBufCap:  16,
		FetchQueueCap:   8,
		FrontEndDelay:   3,
		RedirectPenalty: 3,
		FlushRefill:     5,
	}
}

// Validate reports a descriptive error for unusable configurations.
func (c *Config) Validate(threads int) error {
	switch {
	case threads < 1:
		return fmt.Errorf("pipeline: need at least one thread, got %d", threads)
	case c.Width < 1:
		return fmt.Errorf("pipeline: width %d < 1", c.Width)
	case c.FetchThreads < 1:
		return fmt.Errorf("pipeline: fetch threads %d < 1", c.FetchThreads)
	case c.IQSize < c.Width:
		return fmt.Errorf("pipeline: IQ size %d below machine width %d", c.IQSize, c.Width)
	case c.ROBPerThread < 1 || c.LSQPerThread < 1:
		return fmt.Errorf("pipeline: ROB/LSQ capacities must be positive")
	case c.IntRegs < isaRegsNeeded(threads) || c.FpRegs < isaRegsNeeded(threads):
		return fmt.Errorf("pipeline: %d threads need more than %d/%d physical registers",
			threads, c.IntRegs, c.FpRegs)
	case c.DispatchBufCap < 1 || c.FetchQueueCap < 1:
		return fmt.Errorf("pipeline: front-end buffer capacities must be positive")
	case c.Deadlock == DeadlockWatchdog && c.WatchdogLimit < 1:
		return fmt.Errorf("pipeline: watchdog limit %d < 1", c.WatchdogLimit)
	}
	return nil
}

// DefaultPartition splits a tag-elimination queue the way Ernst &
// Austin's measurements suggest: half the entries keep one comparator,
// a quarter keep two, and a quarter need none (instructions dispatched
// with all operands ready).
func DefaultPartition(size int) iq.Partition {
	p := iq.Partition{size / 4, size / 2, 0}
	p[2] = size - p[0] - p[1]
	return p
}

// queuePartition resolves the partition the configuration implies.
func (c *Config) queuePartition() iq.Partition {
	if c.IQPartition.Total() > 0 {
		return c.IQPartition
	}
	if c.Policy.Partitioned() {
		return DefaultPartition(c.IQSize)
	}
	return iq.Uniform(c.IQSize, c.Policy.MaxNonReady())
}

// isaRegsNeeded is the minimum physical registers per class for the
// initial architectural mappings plus one renameable register.
func isaRegsNeeded(threads int) int { return threads*32 + 1 }
