package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"smtsim"
	"smtsim/internal/core"
	"smtsim/internal/isa"
	"smtsim/internal/metrics"
	"smtsim/internal/pipeline"
	"smtsim/internal/synth"
	"smtsim/internal/workload"
)

// machineCell is one long simulation of the Table 1 machine at IQ 64.
type machineCell struct {
	Name       string
	Benchmarks []string
	Sched      smtsim.Scheduler
}

// The m4 mix is memory-bound (IPC about 1.1, many quiet cycles); Table
// 3's Mix 6 keeps every stage busy (IPC about 4). trad/block/ooo are the
// paper's three schedulers, so OOOD dispatch-scan work shows on *-ooo.
var machineCells = []machineCell{
	{"m4-trad", []string{"equake", "twolf", "gcc", "gzip"}, smtsim.Traditional},
	{"m4-block", []string{"equake", "twolf", "gcc", "gzip"}, smtsim.TwoOpBlock},
	{"m4-ooo", []string{"equake", "twolf", "gcc", "gzip"}, smtsim.TwoOpOOOD},
	{"m2-block", []string{"crafty", "gzip"}, smtsim.TwoOpBlock},
	{"m2-ooo", []string{"crafty", "gzip"}, smtsim.TwoOpOOOD},
}

var cellMetricNames = []string{"ns_per_cycle", "ns_per_instr", "warmup_s", "run_s",
	"cycles", "committed", "ipc", "iq_occupancy", "hdi_dispatched", "dab_inserts", "l1d_miss_rate", "stall_all_any"}

func (e *env) machineConfig(c machineCell) smtsim.Config {
	return smtsim.Config{
		Benchmarks:         c.Benchmarks,
		IQSize:             64,
		Scheduler:          c.Sched,
		MaxInstructions:    e.size.MachineBudget,
		WarmupInstructions: e.size.MachineBudget / 2,
		Seed:               e.seed,
	}
}

// countingReader counts the instructions the pipeline draws from a
// thread's stream (traced runs only).
type countingReader struct {
	r pipeline.TraceReader
	n *uint64
}

func (c countingReader) Next() isa.Inst { *c.n++; return c.r.Next() }

// built is a constructed core and what its construction cost.
type built struct {
	core             *pipeline.Core
	compile, newCore time.Duration
}

// buildCore constructs the pipeline for a Benchmarks-only cfg through
// the layer APIs (workload.CompileBenchmark, pipeline.New), as
// smtsim.Run does internally. The machine workload's smtsim.Run
// cross-check proves the two constructions agree. drawn, when non-nil,
// counts the instructions fetched from every thread's stream.
func buildCore(cfg smtsim.Config, drawn *uint64) (built, error) {
	var b built
	t0 := time.Now()
	progs := make([]*synth.Program, len(cfg.Benchmarks))
	for i, name := range cfg.Benchmarks {
		p, err := workload.CompileBenchmark(name)
		if err != nil {
			return b, err
		}
		progs[i] = p
	}
	t1 := time.Now()
	pcfg := pipeline.DefaultConfig()
	if cfg.IQSize > 0 {
		pcfg.IQSize = cfg.IQSize
	}
	pol, err := core.ParsePolicy(cfg.Scheduler.String())
	if err != nil {
		return b, err
	}
	pcfg.Policy = pol
	specs := make([]pipeline.ThreadSpec, len(progs))
	for t, p := range progs {
		var r pipeline.TraceReader = p.NewStream(cfg.Seed ^ (uint64(t+1) * 0x9E3779B97F4A7C15))
		if drawn != nil {
			r = countingReader{r: r, n: drawn}
		}
		specs[t] = pipeline.ThreadSpec{Name: cfg.Benchmarks[t], Reader: r}
	}
	b.core, err = pipeline.New(pcfg, specs)
	b.compile, b.newCore = t1.Sub(t0), time.Since(t1)
	return b, err
}

// resultJSON renders a pipeline result as the smtsim.Result it becomes
// (the two share field names), so it compares byte for byte with what
// smtsim.Run returns.
func resultJSON(m metrics.Results) ([]byte, error) {
	b, err := json.Marshal(m)
	if err != nil {
		return nil, err
	}
	var r smtsim.Result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, err
	}
	return json.Marshal(r)
}

// cellRun is one timed simulation of a machine cell.
type cellRun struct {
	res             metrics.Results
	warmup, run     time.Duration
	cycles          int64  // warmup included
	committed       uint64 // warmup included
	drawn           uint64
	compile, newDur time.Duration
}

func (e *env) simulateCell(c machineCell) (cellRun, error) {
	var cr cellRun
	cell := e.tr.NewCell()
	top := e.tr.Begin("machine.cell:"+c.Name, 0, cell)
	defer e.tr.End(top)
	var drawn *uint64
	if e.tr != nil {
		drawn = &cr.drawn
	}
	cfg := e.machineConfig(c)
	sp := e.tr.Begin("pipeline.build", top, cell)
	b, err := buildCore(cfg, drawn)
	e.tr.End(sp)
	if err != nil {
		return cr, err
	}
	cr.compile, cr.newDur = b.compile, b.newCore

	sp = e.tr.Begin("pipeline.warmup", top, cell)
	t0 := time.Now()
	err = b.core.Warmup(cfg.WarmupInstructions)
	t1 := time.Now()
	e.tr.End(sp)
	if err != nil {
		return cr, err
	}
	sp = e.tr.Begin("pipeline.run", top, cell)
	cr.res, err = b.core.Run(cfg.MaxInstructions)
	cr.run = time.Since(t1)
	e.tr.End(sp)
	cr.warmup = t1.Sub(t0)
	cr.cycles = b.core.Cycle()
	for t := range cfg.Benchmarks {
		cr.committed += b.core.Committed(t)
	}
	return cr, err
}

// runMachine measures steady-state cycle cost: passes over the five
// cells, each simulated alone, one at a time. Returns the pass time.
func runMachine(e *env) float64 {
	passes := e.passes(e.size.MachinePassesPerS, 3)
	first := make([][]byte, len(machineCells))
	perCell := make([][]cellRun, len(machineCells))
	for p := 0; p < passes; p++ {
		for i, c := range machineCells {
			// Start every cell on a collected heap, so no cell pays for
			// its predecessor's garbage and the peak RSS repeats.
			runtime.GC()
			cr, err := e.simulateCell(c)
			e.op("simulate "+c.Name, err)
			if err != nil {
				continue
			}
			perCell[i] = append(perCell[i], cr)
			js, err := resultJSON(cr.res)
			if err == nil && first[i] != nil && string(js) != string(first[i]) {
				err = fmt.Errorf("pass %d result differs from pass 0", p)
			}
			if p > 0 {
				e.op("repeat "+c.Name, err)
			} else {
				first[i] = js
			}
		}
	}
	// A pass costs the sum of each cell's median time, and set-up the sum
	// of each cell's median construction (compile plus pipeline.New), so a
	// burst of host noise during one cell's run moves no figure.
	var passTime, setup float64
	var instrs uint64
	var compiles, news []float64
	for i := range machineCells {
		var ts, builds []float64
		for _, cr := range perCell[i] {
			ts = append(ts, (cr.warmup + cr.run).Seconds())
			builds = append(builds, (cr.compile + cr.newDur).Seconds())
			compiles = append(compiles, cr.compile.Seconds())
			news = append(news, cr.newDur.Seconds())
		}
		if len(ts) > 0 {
			passTime += median(ts)
			setup += median(builds)
			instrs += perCell[i][0].committed
		}
	}

	// Checks: every cell's result equals smtsim.Run's for the same Config,
	// and the stored digest where there is one.
	for i, c := range machineCells {
		if first[i] == nil {
			continue
		}
		r, err := smtsim.Run(e.machineConfig(c))
		if err == nil {
			var want []byte
			if want, err = json.Marshal(r); err == nil && string(want) != string(first[i]) {
				err = fmt.Errorf("pipeline result differs from smtsim.Run")
			}
		}
		e.op("smtsim.Run "+c.Name, err)
		e.checkDigest(e.digestKey("machine", c.Name), sha(first[i]))
	}

	if e.tr == nil {
		e.put("setup_s", setup, "s")
		e.put("pass_s", passTime, "s")
		e.put("sim_instr_per_s", float64(instrs)/passTime, "1/s")
		fmt.Fprintf(e.out, "  (%d passes of %d cells; instructions include warmup)\n", passes, len(machineCells))
		return passTime
	}

	e.put("workload.compile_us", median(compiles)*1e6, "us")
	e.put("pipeline.new_us", median(news)*1e6, "us")
	e.synthProbe()
	var drawn, committed uint64
	for i, c := range machineCells {
		runs := perCell[i]
		if len(runs) == 0 {
			continue
		}
		var nsCycle, nsInstr, warm, run []float64
		for _, cr := range runs {
			ns := float64((cr.warmup + cr.run).Nanoseconds())
			nsCycle = append(nsCycle, ns/float64(cr.cycles))
			nsInstr = append(nsInstr, ns/float64(cr.committed))
			warm = append(warm, cr.warmup.Seconds())
			run = append(run, cr.run.Seconds())
			drawn += cr.drawn
			committed += cr.committed
		}
		r := runs[0].res
		e.put(c.Name+".ns_per_cycle", median(nsCycle), "ns")
		e.put(c.Name+".ns_per_instr", median(nsInstr), "ns")
		e.put(c.Name+".warmup_s", median(warm), "s")
		e.put(c.Name+".run_s", median(run), "s")
		e.put(c.Name+".cycles", float64(r.Cycles), "cycles")
		e.put(c.Name+".committed", float64(r.Committed), "instr")
		e.put(c.Name+".ipc", r.IPC, "instr/cycle")
		e.put(c.Name+".iq_occupancy", r.IQOccupancy, "entries")
		e.put(c.Name+".hdi_dispatched", float64(r.HDIDispatched), "count")
		e.put(c.Name+".dab_inserts", float64(r.DABInserts), "count")
		e.put(c.Name+".l1d_miss_rate", r.L1DMissRate, "ratio")
		e.put(c.Name+".stall_all_any", r.DispatchStallAllAny, "ratio")
	}
	e.put("synth.drawn_per_committed", float64(drawn)/float64(committed), "ratio")
	return passTime
}

// synthProbe drains each machine benchmark's stream outside the
// pipeline: the instruction-generation cost the pipeline pays per fetch.
func (e *env) synthProbe() {
	seen := map[string]bool{}
	var total time.Duration
	var n int
	for _, c := range machineCells {
		for t, name := range c.Benchmarks {
			if seen[name] {
				continue
			}
			seen[name] = true
			p, err := workload.CompileBenchmark(name)
			e.op("compile "+name, err)
			if err != nil {
				continue
			}
			s := p.NewStream(e.seed ^ (uint64(t+1) * 0x9E3779B97F4A7C15))
			sp := e.tr.Begin("synth.drain:"+name, 0, 0)
			t0 := time.Now()
			var sink uint64
			for i := 0; i < e.size.SynthInstrs; i++ {
				sink += s.Next().PC
			}
			total += time.Since(t0)
			e.tr.End(sp)
			n += e.size.SynthInstrs
			if sink == 0 {
				e.op("drain "+name, fmt.Errorf("stream produced no PCs"))
			}
		}
	}
	e.put("synth.ns_per_instr", float64(total.Nanoseconds())/float64(n), "ns")
}
