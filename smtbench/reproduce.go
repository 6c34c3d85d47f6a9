package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"smtsim"
	"smtsim/internal/cellstore"
	"smtsim/internal/report"
	"smtsim/internal/sweep"
)

const reportSections = 15

func (e *env) reproduceOptions() sweep.Options {
	return sweep.Options{Budget: e.size.ReproduceBudget, Seed: e.seed, Parallelism: e.workers}
}

// tracedRunner is an Options.Runner that simulates every batch with
// sweep.SimulateSpec over the same number of workers as the stock
// fan-out, recording a span per batch and per cell.
type tracedRunner struct {
	e       *env
	mu      sync.Mutex
	batches int
	cells   int
	keys    map[string]bool
}

func (r *tracedRunner) run(specs []cellstore.Spec) ([]smtsim.Result, error) {
	e := r.e
	r.mu.Lock()
	r.batches++
	r.cells += len(specs)
	for _, s := range specs {
		r.keys[s.Key()] = true
	}
	r.mu.Unlock()
	batch := e.tr.Begin("sweep.batch", 0, 0)
	defer e.tr.End(batch)
	results := make([]smtsim.Result, len(specs))
	errs := make([]error, len(specs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < e.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				cell := e.tr.NewCell()
				sp := e.tr.Begin("sweep.cell", batch, cell)
				results[i], errs[i] = sweep.SimulateSpec(specs[i])
				e.tr.End(sp)
			}
		}()
	}
	for i := range specs {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("cell %d: %w", i, err)
		}
	}
	return results, nil
}

// serialRunner simulates a batch one cell at a time: the reference the
// report's own fan-out is checked against.
func serialRunner(specs []cellstore.Spec) ([]smtsim.Result, error) {
	out := make([]smtsim.Result, len(specs))
	for i, s := range specs {
		var err error
		if out[i], err = sweep.SimulateSpec(s); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// errFirstCell stops a set-up pass at its first cell.
var errFirstCell = errors.New("first cell reached")

// reproduceSetup times report.Generate from its start to the moment its
// first cell would be handed to sweep.SimulateSpec. A Runner that notes
// the time and returns errFirstCell stops the pass there, before any
// cell simulates, so the memoized baselines stay untouched.
func reproduceSetup(o sweep.Options) (time.Duration, error) {
	var first time.Time
	o.Runner = func([]cellstore.Spec) ([]smtsim.Result, error) {
		first = time.Now()
		return nil, errFirstCell
	}
	t0 := time.Now()
	_, err := report.Generate(o)
	if !errors.Is(err, errFirstCell) {
		return 0, fmt.Errorf("pass not stopped at its first cell: %v", err)
	}
	return first.Sub(t0), nil
}

// runReproduce regenerates the whole evaluation once per pass, each pass
// for its own seed (a second report.Generate for the same seed would
// reuse the memoized single-thread baselines, so it is not the same
// work), and returns the median pass wall time.
func runReproduce(e *env) float64 {
	o := e.reproduceOptions()

	// Set-up: report.Generate from its start to its first cell's
	// SimulateSpec call, on passes stopped there through Options.Runner
	// and kept out of pass_s. Sampled before every pass, so the median
	// spans the run.
	var setups []float64
	sampleSetup := func() bool {
		for i := 0; i < e.size.SetupReps; i++ {
			dt, err := reproduceSetup(o)
			if err != nil {
				e.op("set-up pass", err)
				return false
			}
			setups = append(setups, dt.Seconds())
		}
		return true
	}

	// Passes: pass p regenerates the report for seed + p<<32, so every
	// pass is a first Generate for its seed (the memo keys on the seed).
	passes := e.passes(e.size.ReproducePassesPerS, 1)
	var tr *tracedRunner // the first pass's, when traced
	var walls []float64
	var held, checked int
	for p := 0; p < passes; p++ {
		runtime.GC()
		if !sampleSetup() {
			return 0
		}
		po := o
		po.Seed = o.Seed + uint64(p)<<32
		var mu sync.Mutex
		cells := 0
		var ptr *tracedRunner
		if e.tr != nil {
			ptr = &tracedRunner{e: e, keys: map[string]bool{}}
			po.Runner = ptr.run
		} else {
			po.Progress = func(string) { mu.Lock(); cells++; mu.Unlock() }
		}
		sp := e.tr.Begin("report.generate", 0, 0)
		t0 := time.Now()
		rep, err := report.Generate(po)
		wall := time.Since(t0).Seconds()
		e.tr.End(sp)
		if ptr != nil {
			cells = ptr.cells
			if tr == nil {
				tr = ptr
			}
		}
		e.ops(cells, 0)
		e.op("report.Generate", err)
		if err != nil {
			return wall
		}
		walls = append(walls, wall)
		fmt.Fprintf(e.out, "  pass %d: %.3f s\n", p, wall)

		// Checks: the rendered bytes against the stored digest, the
		// section count, and (once) fig3 recomputed through a serial
		// runner.
		e.checkDigest(e.digestKey("reproduce", fmt.Sprintf("pass=%d", p)), sha([]byte(rep.Render())))
		var secErr error
		if n := len(rep.Sections); n != reportSections {
			secErr = fmt.Errorf("%d sections, want %d", n, reportSections)
		}
		e.op("sections", secErr)
		if p == 0 {
			ref := po
			ref.Runner, ref.Progress = serialRunner, nil
			t, err := sweep.FigureSpeedup(2, ref)
			if got, _ := rep.Table("fig3"); err == nil && got.Render() != t.Render() {
				err = fmt.Errorf("report's fig3 differs from a serial recomputation")
			}
			e.op("fig3 recomputation", err)
			checks := rep.Check()
			checked = len(checks)
			for _, c := range checks {
				if c.OK {
					held++
				}
			}
		}
	}
	wall := median(walls)

	if e.tr == nil {
		e.put("setup_s", median(setups), "s")
		e.put("pass_s", wall, "s")
		e.put("reproduce_s", wall, "s")
		fmt.Fprintf(e.out, "  (%d passes; %d/%d shape targets hold)\n", passes, held, checked)
		return wall
	}

	cellTimes := e.tr.Durations("sweep.cell")
	var busy, walled float64
	for _, d := range cellTimes {
		busy += d
	}
	for _, w := range walls {
		walled += w
	}
	e.put("sweep.cells_attempted", float64(tr.cells), "count")
	e.put("sweep.cells_distinct", float64(len(tr.keys)), "count")
	e.put("sweep.distinct_ratio", float64(len(tr.keys))/float64(tr.cells), "ratio")
	e.put("sweep.cell_ms_p50", percentile(cellTimes, 50)*1e3, "ms")
	e.put("sweep.cell_ms_p95", percentile(cellTimes, 95)*1e3, "ms")
	e.put("sweep.batches", float64(tr.batches), "count")
	e.put("sweep.busy_ratio", busy/(walled*float64(e.workers)), "ratio")
	e.put("report.shape_targets_held", float64(held), "count")
	fmt.Fprintf(e.out, "  (%d traced passes, median %.3f s; counts are the first pass's; %d shape targets checked)\n", passes, wall, checked)
	return wall
}
