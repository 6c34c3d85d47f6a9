package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the A/B comparison needs.
type benchSpec struct {
	EndToEnd []struct {
		Name, Better string
		Bound        float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Better string } `json:"per_layer"`
}

// abSide is one build under comparison.
type abSide struct {
	name, bin, workdir string
	runs               []summary
}

// runAB runs interleaved pairs of two benchmark binaries built from the
// same benchmark code over two program commits, alternating which side
// goes first, and prints each metric's median, quartiles and pair wins
// (choosing-metrics §8). ab.sh builds the binaries and calls it.
func runAB(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("smtbench ab", flag.ContinueOnError)
	fs.SetOutput(out)
	base := fs.String("base", "", "benchmark binary built over the base commit")
	head := fs.String("head", "", "benchmark binary built over the head commit")
	workload := fs.String("workload", "machine", "workload to compare")
	pairs := fs.Int("pairs", 10, "number of pairs")
	seconds := fs.Float64("seconds", 30, "--seconds of every run")
	trace := fs.Int("trace", 0, "--trace of every run")
	size := fs.String("size", "full", "--size of every run")
	spec := fs.String("spec", "BENCHMARK.json", "benchmark definition (metric directions and bounds)")
	workdir := fs.String("workdir", ".bench_build/ab", "scratch directory of the runs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *base == "" || *head == "" || *pairs < 1 {
		fmt.Fprintln(out, "smtbench ab: --base and --head binaries and --pairs >= 1 are required")
		return 2
	}
	b, err := os.ReadFile(*spec)
	var bs benchSpec
	if err == nil {
		err = json.Unmarshal(b, &bs)
	}
	if err != nil {
		fmt.Fprintln(out, "smtbench ab:", err)
		return 2
	}
	better, bound := map[string]string{}, map[string]float64{}
	for _, m := range bs.EndToEnd {
		better[m.Name], bound[m.Name] = m.Better, m.Bound
	}
	for _, m := range bs.PerLayer {
		better[m.Name] = m.Better
	}

	sides := []*abSide{
		{name: "base", bin: *base, workdir: filepath.Join(*workdir, "base")},
		{name: "head", bin: *head, workdir: filepath.Join(*workdir, "head")},
	}
	for i := 0; i < *pairs; i++ {
		order := []*abSide{sides[0], sides[1]}
		if i%2 == 1 {
			order[0], order[1] = order[1], order[0]
		}
		// Both sides of a pair run the same seed; pairs vary it.
		seed := uint64(i + 1)
		for _, s := range order {
			res, err := abRun(s, *workload, *size, seed, *seconds, *trace)
			if err != nil {
				fmt.Fprintf(out, "pair %d %s: %v\n", i, s.name, err)
				return 1
			}
			s.runs = append(s.runs, res)
			fmt.Fprintf(out, "pair %d %s: correct=%v attempted=%d failed=%d\n", i, s.name, res.Correct, res.Attempted, res.Failed)
		}
	}
	if !abReport(out, sides[0].runs, sides[1].runs, better, bound) {
		return 1
	}
	return 0
}

// abRun runs one side once and parses its summary line.
func abRun(s *abSide, workload, size string, seed uint64, seconds float64, trace int) (summary, error) {
	if err := os.MkdirAll(s.workdir, 0o755); err != nil {
		return summary{}, err
	}
	cmd := exec.Command(s.bin, "--workload", workload, "--size", size, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace), "--workdir", s.workdir)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run() // a failed check exits 1 but still prints its summary
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, fmt.Errorf("no summary line (%v): %w", runErr, err)
	}
	return res, nil
}

// allBetter reports whether every head value beats every base value.
func allBetter(head, base []float64, better string) bool {
	if len(head) == 0 || len(base) == 0 {
		return false
	}
	h, b := sorted(head), sorted(base)
	if better == "higher" {
		return h[0] > b[len(b)-1]
	}
	return h[len(h)-1] < b[0]
}

// abReport prints, per metric, each side's median and quartiles over its
// correct runs, the head's pair wins over pairs where both runs are
// correct, and the §8 verdict: a gain needs at least ten pairs, wins in
// at least nine tenths of them and a median difference beyond the base's
// own quartile spread; a loss beyond the metric's bound is a regression,
// and a metric whose base spread exceeds its bound is unresolved. A
// comparison where any run is not correct, or where the head fails more
// operations than the base, claims no gain and reports false.
func abReport(out io.Writer, base, head []summary, better map[string]string, bound map[string]float64) bool {
	var bf, hf, ba, ha, incorrect int
	for i := range base {
		bf, ba = bf+base[i].Failed, ba+base[i].Attempted
		if !base[i].Correct {
			incorrect++
		}
	}
	for i := range head {
		hf, ha = hf+head[i].Failed, ha+head[i].Attempted
		if !head[i].Correct {
			incorrect++
		}
	}
	valid := incorrect == 0 && hf <= bf

	names := map[string]bool{}
	for _, r := range append(append([]summary{}, base...), head...) {
		for n := range r.Metrics {
			names[n] = true
		}
	}
	metricNames := make([]string, 0, len(names))
	for n := range names {
		metricNames = append(metricNames, n)
	}
	sort.Strings(metricNames)
	fmt.Fprintf(out, "\n%-30s %-34s %-34s %8s %6s  %s\n", "metric", "base median [q1, q3]", "head median [q1, q3]", "delta", "wins", "verdict")
	for _, n := range metricNames {
		var bv, hv []float64
		wins, pairs := 0, 0
		for i := range base {
			b, okb := base[i].Metrics[n]
			h, okh := head[i].Metrics[n]
			okb = okb && base[i].Correct
			okh = okh && head[i].Correct
			if okb {
				bv = append(bv, b.Value)
			}
			if okh {
				hv = append(hv, h.Value)
			}
			if okb && okh {
				pairs++
				if (better[n] == "higher" && h.Value > b.Value) || (better[n] != "higher" && h.Value < b.Value) {
					wins++
				}
			}
		}
		bm, hm := median(bv), median(hv)
		b1, b3 := quartiles(bv)
		h1, h3 := quartiles(hv)
		delta := (hm - bm) / bm
		worse := delta > 0
		if better[n] == "higher" {
			worse = delta < 0
		}
		verdict := "-"
		switch {
		case pairs >= 10 && float64(wins) >= 0.9*float64(pairs) && math.Abs(hm-bm) > b3-b1:
			verdict = "gain"
			if !valid {
				verdict = "no gain (failures)"
			}
		case bound[n] == 0:
		case (b3-b1) > bound[n]*math.Abs(bm) && !allBetter(hv, bv, better[n]):
			verdict = "unresolved" // the base's own spread exceeds the bound
		case worse && math.Abs(delta) > bound[n]:
			verdict = "regression"
		default:
			verdict = "within bound"
		}
		fmt.Fprintf(out, "%-30s %-34s %-34s %+7.2f%% %3d/%-2d  %s\n", n,
			fmt.Sprintf("%.6g [%.6g, %.6g]", bm, b1, b3), fmt.Sprintf("%.6g [%.6g, %.6g]", hm, h1, h3),
			100*delta, wins, pairs, verdict)
	}
	fmt.Fprintf(out, "failed/attempted: base %d/%d, head %d/%d\n", bf, ba, hf, ha)
	if !valid {
		fmt.Fprintf(out, "comparison invalid: %d runs not correct, head failed %d operations, base %d; no gain is claimed\n", incorrect, hf, bf)
	}
	return valid
}
