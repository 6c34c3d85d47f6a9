package sweep

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"smtsim"
	"smtsim/internal/cellstore"
)

// simCounter replaces the in-process executor for one test and counts
// the simulations it runs, per spec key.
type simCounter struct {
	mu   sync.Mutex
	runs map[string]int
}

func countSimulations(t *testing.T) *simCounter {
	t.Helper()
	c := &simCounter{runs: map[string]int{}}
	prev := simulate
	simulate = func(s cellstore.Spec) (smtsim.Result, error) {
		c.mu.Lock()
		c.runs[s.Key()]++
		c.mu.Unlock()
		return SimulateSpec(s)
	}
	t.Cleanup(func() { simulate = prev })
	return c
}

func (c *simCounter) total() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, k := range c.runs {
		n += k
	}
	return n
}

// resetAlone empties AloneIPCs' process-lifetime map so two runs of the
// same seed see the same cells.
func resetAlone(t *testing.T) {
	t.Helper()
	aloneMu.Lock()
	aloneCache = map[aloneKey]float64{}
	aloneMu.Unlock()
}

// overlappingFigures renders figures that read overlapping cells, the
// way report.Generate's sections do: Figure 3 repeats Figure 1's
// traditional and 2OP_BLOCK rows, Figure 4 all of Figure 3, and the
// stall statistics Figure 1's IQ=64 column.
func overlappingFigures(o Options) (string, error) {
	var b strings.Builder
	for _, f := range []func() (Table, error){
		func() (Table, error) { return Figure1(o) },
		func() (Table, error) { return FigureSpeedup(2, o) },
		func() (Table, error) { return FigureFairness(2, o) },
		func() (Table, error) { return StallStats(64, o) },
	} {
		t, err := f()
		if err != nil {
			return "", err
		}
		b.WriteString(t.Render())
	}
	return b.String(), nil
}

// TestMemoSimulatesDistinctCellsOnce runs the figures through a serial
// Runner, which sees every cell, and then in process over one memo. The
// memoized run must simulate each distinct spec exactly once, report
// progress for every cell, and render the same bytes.
func TestMemoSimulatesDistinctCellsOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep harness test")
	}
	base := Options{Budget: 1_000, Seed: 7, IQSizes: []int{32, 64}, Parallelism: 2}

	resetAlone(t)
	var specs []cellstore.Spec
	ref := base
	ref.Runner = func(batch []cellstore.Spec) ([]smtsim.Result, error) {
		out := make([]smtsim.Result, len(batch))
		for i, s := range batch {
			var err error
			if out[i], err = SimulateSpec(s); err != nil {
				return nil, err
			}
		}
		specs = append(specs, batch...)
		return out, nil
	}
	want, err := overlappingFigures(ref)
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[string]bool{}
	for _, s := range specs {
		distinct[s.Key()] = true
	}
	if len(distinct) == len(specs) {
		t.Fatalf("the figures share no cells (%d cells); the test needs overlap", len(specs))
	}

	resetAlone(t)
	sims := countSimulations(t)
	var mu sync.Mutex
	progress := 0
	o := base.Shared()
	o.Progress = func(string) { mu.Lock(); progress++; mu.Unlock() }
	got, err := overlappingFigures(o)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("memoized figures differ from the Runner path:\n%s\nwant:\n%s", got, want)
	}
	if progress != len(specs) {
		t.Errorf("progress fired %d times for %d cells", progress, len(specs))
	}
	if n := sims.total(); n != len(distinct) {
		t.Errorf("simulated %d cells, want the %d distinct of %d", n, len(distinct), len(specs))
	}
	for k, n := range sims.runs {
		if !distinct[k] || n != 1 {
			t.Errorf("cell %.12s simulated %d times (in the Runner's set: %v)", k, n, distinct[k])
		}
	}
}

// TestMemoSharedAcrossConcurrentFigures runs two figures that read the
// same grid at the same time over one memo: every spec simulates once,
// whichever figure reaches it first.
func TestMemoSharedAcrossConcurrentFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep harness test")
	}
	sims := countSimulations(t)
	o := Options{Budget: 1_000, Seed: 8, IQSizes: []int{64}, Parallelism: 2}.Shared()
	var wg sync.WaitGroup
	tabs := make([]Table, 2)
	errs := make([]error, 2)
	for i, f := range []func() (Table, error){
		func() (Table, error) { return FigureSpeedup(2, o) },
		func() (Table, error) { return Figure1(o) },
	} {
		wg.Add(1)
		go func(i int, f func() (Table, error)) {
			defer wg.Done()
			tabs[i], errs[i] = f()
		}(i, f)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	// Figure 1's 2-thread rows are Figure 3's traditional and
	// 2OP_BLOCK rows, so the two share 24 cells at one IQ size.
	for k, n := range sims.runs {
		if n != 1 {
			t.Errorf("cell %.12s simulated %d times", k, n)
		}
	}
	if n, cells := sims.total(), 36+72; n != cells-24 {
		t.Errorf("simulated %d cells, want %d", n, cells-24)
	}
	if tabs[0].Values[1][0] != tabs[1].Values[0][0] {
		t.Errorf("2OP_BLOCK 2-thread speedup differs: fig3 %v, fig1 %v", tabs[0].Values[1][0], tabs[1].Values[0][0])
	}
}

// TestMemoDropsFailedCells fails a cell's first simulation: the caller
// sees the error, and the next call for the same spec simulates again
// rather than replaying the failure.
func TestMemoDropsFailedCells(t *testing.T) {
	boom := errors.New("injected failure")
	calls := 0
	prev := simulate
	simulate = func(s cellstore.Spec) (smtsim.Result, error) {
		calls++
		if calls == 1 {
			return smtsim.Result{}, boom
		}
		return smtsim.Result{IPC: 1, Threads: []smtsim.ThreadResult{{Benchmark: s.Benchmarks[0]}}}, nil
	}
	t.Cleanup(func() { simulate = prev })

	o := Options{Budget: 1_000, Parallelism: 1}.Shared()
	cells := []cell{{mix: mixOf("gzip"), sched: smtsim.Traditional, iq: 64}}
	if _, err := runCells(cells, o); !errors.Is(err, boom) {
		t.Fatalf("first run: err = %v, want the injected failure", err)
	}
	res, err := runCells(cells, o)
	if err != nil {
		t.Fatalf("retry: %v", err)
	}
	if calls != 2 || res[0].IPC != 1 {
		t.Errorf("retry made %d simulate calls (want 2), IPC %v", calls, res[0].IPC)
	}
	if _, err := runCells(cells, o); err != nil || calls != 2 {
		t.Errorf("third run: err %v, %d simulate calls (want the retry's result reused)", err, calls)
	}
}

// TestMemoCopiesThreads checks that a hit cannot alias another caller's
// per-thread results.
func TestMemoCopiesThreads(t *testing.T) {
	prev := simulate
	simulate = func(s cellstore.Spec) (smtsim.Result, error) {
		return smtsim.Result{Threads: []smtsim.ThreadResult{{Benchmark: s.Benchmarks[0]}}}, nil
	}
	t.Cleanup(func() { simulate = prev })

	o := Options{Budget: 1_000, Parallelism: 1}.Shared()
	c := cell{mix: mixOf("gzip"), sched: smtsim.Traditional, iq: 64}
	res, err := runCells([]cell{c, c}, o)
	if err != nil {
		t.Fatal(err)
	}
	res[0].Threads[0].Benchmark = "changed"
	again, err := runCells([]cell{c}, o)
	if err != nil {
		t.Fatal(err)
	}
	if res[1].Threads[0].Benchmark != "gzip" || again[0].Threads[0].Benchmark != "gzip" {
		t.Errorf("a caller's edit reached other hits: %q, %q", res[1].Threads[0].Benchmark, again[0].Threads[0].Benchmark)
	}
}
