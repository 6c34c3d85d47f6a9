// Command smtbench is smtsim's end-to-end benchmark. One invocation runs
// one workload in one process and prints every metric by name with its
// unit; the last line of standard output is a JSON summary:
//
//	bash smtbench/run.sh --workload machine --seed 1 --seconds 30 --trace 0
//
// Workloads (see README.md): reproduce regenerates the paper's whole
// evaluation through report.Generate; machine runs long single
// simulations of the Table 1 machine through pipeline.New/Warmup/Run;
// service drives sweepd over a fresh cellstore through a loopback HTTP
// server. With --trace 0 the summary holds the end-to-end metrics of
// the named workload; with --trace 1 the run records spans around every
// layer call of all three workloads and the summary holds the per-layer
// metrics. Every output is checked (stored digests, differential
// re-runs); any failed check makes the command exit 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
)

// metric is one named measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the JSON line the command ends with.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// sizes fixes the work of a run. The full size is what the benchmark
// measures; tiny exists for the smoke test.
type sizes struct {
	Name            string
	ReproduceBudget uint64 // per-cell instruction budget of report.Generate
	MachineBudget   uint64 // per-cell budget of the machine cells (warmup = half)
	ServiceBudget   uint64 // per-cell budget of the Table-1 cells sweepd serves
	// Pass counts per --seconds second. They are fixed by --seconds, not
	// by host speed, so every run of a commit does the same work; the
	// full size takes about --seconds on the host README.md names.
	ReproducePassesPerS float64
	MachinePassesPerS   float64
	ColdPassesPerS      float64
	WarmPassesPerS      float64
	SetupReps           int // set-up repetitions behind each setup_s median
	SynthInstrs         int // instructions drained per benchmark by the synth probe
}

var sizeTable = map[string]sizes{
	"full": {Name: "full", ReproduceBudget: 1000, MachineBudget: 100_000, ServiceBudget: 1000,
		ReproducePassesPerS: 0.34, MachinePassesPerS: 1.0, ColdPassesPerS: 0.4, WarmPassesPerS: 25,
		SetupReps: 25, SynthInstrs: 400_000},
	"tiny": {Name: "tiny", ReproduceBudget: 100, MachineBudget: 2000, ServiceBudget: 100,
		ReproducePassesPerS: 0.1, MachinePassesPerS: 1, ColdPassesPerS: 0.1, WarmPassesPerS: 5,
		SetupReps: 3, SynthInstrs: 2000},
}

// passes is the pass count for a per-second rate, at least min.
func (e *env) passes(perS float64, min int) int {
	n := int(e.seconds*perS + 0.5)
	if n < min {
		n = min
	}
	return n
}

// env is the state one run shares between its workloads.
type env struct {
	seed    uint64
	seconds float64
	size    sizes
	workers int
	workdir string
	tr      *Tracer // nil when untraced
	out     io.Writer

	digests  map[string]string // stored reference digests
	recorded map[string]string // digests computed by this run

	attempted, failed int
	metrics           map[string]metric // every metric printed, end-to-end or per-layer
}

// op accounts one operation; a non-nil err counts it as failed.
func (e *env) op(what string, err error) {
	e.attempted++
	if err != nil {
		e.failed++
		fmt.Fprintf(e.out, "FAIL %s: %v\n", what, err)
	}
}

// ops accounts n operations of which failed failed.
func (e *env) ops(n, failed int) {
	e.attempted += n
	e.failed += failed
}

// put records and prints one metric.
func (e *env) put(name string, v float64, unit string) {
	e.metrics[name] = metric{Value: v, Unit: unit}
	fmt.Fprintf(e.out, "  %-34s %16.6g %s\n", name, v, unit)
}

// checkDigest compares a computed digest against the stored one for
// key. A key with no stored digest is not a failure (only the default
// and the held-out seed are stored); its digest is recorded either way.
func (e *env) checkDigest(key, got string) {
	e.recorded[key] = got
	want, ok := e.digests[key]
	if !ok {
		fmt.Fprintf(e.out, "  (no stored digest for %s)\n", key)
		return
	}
	var err error
	if want != got {
		err = fmt.Errorf("digest %s, stored %s", got, want)
	}
	e.op("digest "+key, err)
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // KiB on Linux
}

// endToEnd and perLayer name the metrics the summary line carries in
// each trace mode; BENCHMARK.json lists the same names.
var endToEnd = []string{"setup_s", "pass_s", "peak_rss_mb"}

func perLayer() []string {
	names := []string{"trace.overhead_ratio",
		"workload.compile_us", "pipeline.new_us", "synth.ns_per_instr", "synth.drawn_per_committed"}
	for _, c := range machineCells {
		for _, m := range cellMetricNames {
			names = append(names, c.Name+"."+m)
		}
	}
	return append(names,
		"sweep.cells_attempted", "sweep.cells_distinct", "sweep.distinct_ratio",
		"sweep.cell_ms_p50", "sweep.cell_ms_p95", "sweep.batches", "sweep.busy_ratio",
		"report.shape_targets_held",
		"cellstore.put_us_p50", "cellstore.get_us_p50", "cellstore.spec_key_us", "cellstore.open_ms",
		"sweepd.first_cell_ms_p50", "sweepd.simulations_cold", "sweepd.simulations_warm")
}

var workloads = map[string]func(*env) (wall float64){
	"reproduce": runReproduce,
	"machine":   runMachine,
	"service":   runService,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "ab" {
		os.Exit(runAB(os.Args[2:], os.Stdout))
	}
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("smtbench", flag.ContinueOnError)
	fs.SetOutput(out)
	workload := fs.String("workload", "machine", "reproduce, machine or service")
	seed := fs.Uint64("seed", 1, "workload seed (1 is the default seed, 2 the held-out one)")
	seconds := fs.Float64("seconds", 30, "measured seconds the run is sized for")
	trace := fs.Int("trace", 0, "1 records spans around every layer call and prints per-layer metrics")
	size := fs.String("size", "full", "full, or tiny for the smoke test")
	record := fs.String("record", "", "merge this run's digests into this file")
	workdir := fs.String("workdir", ".bench_build", "scratch directory for stores and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*workload]
	sz, okSize := sizeTable[*size]
	if !ok || !okSize || *trace < 0 || *trace > 1 || *seconds <= 0 {
		fmt.Fprintf(out, "smtbench: bad --workload %q, --size %q, --trace %d or --seconds %g\n", *workload, *size, *trace, *seconds)
		return 2
	}
	ref, err := loadDigests()
	if err != nil {
		fmt.Fprintln(out, "smtbench:", err)
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(out, "smtbench:", err)
		return 2
	}
	e := &env{
		seed: *seed, seconds: *seconds, size: sz, workers: runtime.NumCPU(), workdir: *workdir,
		out: out, digests: ref, recorded: map[string]string{}, metrics: map[string]metric{},
	}
	names := endToEnd
	if *trace == 1 {
		names = perLayer()
		runTraced(e, *workload)
	} else {
		fmt.Fprintf(out, "== %s (seed %d, size %s, %d workers)\n", *workload, e.seed, sz.Name, e.workers)
		wl(e)
		e.put("peak_rss_mb", peakRSSMB(), "MB")
	}
	if *record != "" {
		if err := recordDigests(*record, e.recorded); err != nil {
			fmt.Fprintln(out, "smtbench:", err)
			return 2
		}
	}

	s := summary{Correct: e.failed == 0, Attempted: e.attempted, Failed: e.failed, Metrics: map[string]metric{}}
	var missing []string
	for _, n := range names {
		m, ok := e.metrics[n]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			missing = append(missing, n)
			continue
		}
		s.Metrics[n] = m
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		fmt.Fprintf(out, "FAIL metrics not measured: %v\n", missing)
		s.Correct = false
	}
	if s.Attempted == 0 {
		s.Attempted, s.Failed, s.Correct = 1, 1, false
	}
	b, _ := json.Marshal(s)
	fmt.Fprintln(out, string(b))
	if !s.Correct {
		return 1
	}
	return 0
}

// runTraced runs every workload traced — the per-layer metric set spans
// all layers, so each traced run measures all of them — then the named
// workload once more untraced for trace.overhead_ratio, each sized for a
// third of --seconds. The traced reproduce passes go first: sweep
// memoizes single-thread baselines for the life of the process, and each
// pass must see all 2126 cells.
func runTraced(e *env, named string) {
	e.tr = newTracer()
	e.seconds /= 3
	walls := map[string]float64{}
	for _, w := range []string{"reproduce", "machine", "service"} {
		fmt.Fprintf(e.out, "== %s traced (seed %d, size %s, %d workers)\n", w, e.seed, e.size.Name, e.workers)
		walls[w] = workloads[w](e)
	}
	path := filepath.Join(e.workdir, "traces", fmt.Sprintf("%s-seed%d.json", named, e.seed))
	e.op("write spans", e.tr.WriteFile(path))
	fmt.Fprintf(e.out, "  spans written to %s\n", path)

	tr := e.tr
	e.tr = nil
	fmt.Fprintf(e.out, "== %s untraced baseline\n", named)
	base := *e
	base.attempted, base.failed = 0, 0
	base.metrics = map[string]metric{} // keep the traced figures
	if named == "reproduce" {
		// A different seed: the same one would hit the baseline memo.
		base.seed = e.seed + 1<<40
	}
	untraced := workloads[named](&base)
	e.attempted += base.attempted
	e.failed += base.failed
	e.tr = tr
	e.put("trace.overhead_ratio", walls[named]/untraced, "ratio")
}
