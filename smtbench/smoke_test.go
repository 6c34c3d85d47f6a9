package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// The smoke tests run the benchmark in process at the tiny size: every
// metric BENCHMARK.json names must be printed with its unit, and a
// corrupted digest must fail the run.

type definition struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadDefinition(t *testing.T) definition {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d definition
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// runTiny runs the benchmark and returns its exit code, summary and the
// metrics printed on the human-readable lines.
func runTiny(t *testing.T, args ...string) (int, summary, map[string]string, string) {
	t.Helper()
	var out bytes.Buffer
	args = append([]string{"--size", "tiny", "--seconds", "1", "--workdir", t.TempDir()}, args...)
	code := run(args, &out)
	text := out.String()
	lines := strings.Split(strings.TrimSpace(text), "\n")
	var s summary
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		t.Fatalf("last line is not a summary: %v\n%s", err, text)
	}
	printed := map[string]string{} // name -> unit
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 3 && strings.HasPrefix(sc.Text(), "  ") {
			printed[f[0]] = f[2]
		}
	}
	return code, s, printed, text
}

func TestEndToEndMetrics(t *testing.T) {
	def := loadDefinition(t)
	// The end-to-end metrics the summary carries, plus the workload's own
	// figures printed by name.
	own := map[string][]string{
		"reproduce": {"reproduce_s"},
		"machine":   {"sim_instr_per_s"},
		"service":   {"cold_cells_per_s", "warm_cells_per_s", "warm_sweep_ms_p50", "warm_sweep_ms_p95", "cellstore.open_ms"},
	}
	for _, w := range def.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			code, s, printed, text := runTiny(t, "--workload", w.Name, "--seed", "1", "--trace", "0")
			if code != 0 || !s.Correct || s.Failed != 0 || s.Attempted < 1 {
				t.Fatalf("exit %d, summary %+v\n%s", code, s, text)
			}
			if len(s.Metrics) != len(def.EndToEnd) {
				t.Errorf("summary has %d metrics, BENCHMARK.json lists %d", len(s.Metrics), len(def.EndToEnd))
			}
			for _, m := range def.EndToEnd {
				got, ok := s.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || got.Value <= 0 {
					t.Errorf("%s: got %+v, want a positive value in %s", m.Name, got, m.Unit)
				}
			}
			for _, n := range own[w.Name] {
				if printed[n] == "" {
					t.Errorf("%s not printed with a unit\n%s", n, text)
				}
			}
			if strings.Contains(text, "no stored digest") {
				t.Errorf("an output of seed 1 went unchecked\n%s", text)
			}
		})
	}
}

func TestPerLayerMetrics(t *testing.T) {
	def := loadDefinition(t)
	// Seed 2: the sweep memo is per process and per seed, and the traced
	// reproduce pass must be the first Generate of its seed.
	code, s, _, text := runTiny(t, "--workload", "machine", "--seed", "2", "--trace", "1")
	if code != 0 || !s.Correct {
		t.Fatalf("exit %d, summary correct=%v failed=%d\n%s", code, s.Correct, s.Failed, text)
	}
	if len(s.Metrics) != len(def.PerLayer) {
		t.Errorf("summary has %d metrics, BENCHMARK.json lists %d", len(s.Metrics), len(def.PerLayer))
	}
	for _, m := range def.PerLayer {
		if got, ok := s.Metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("%s: got %+v, want unit %s", m.Name, got, m.Unit)
		}
	}
	for name, want := range map[string]float64{
		"sweep.cells_attempted":   2126,
		"sweep.cells_distinct":    842,
		"sweepd.simulations_cold": 540,
		"sweepd.simulations_warm": 0,
	} {
		if got := s.Metrics[name].Value; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

func TestCorruptDigestFails(t *testing.T) {
	ref, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	const key = "machine/tiny/seed=1/m2-ooo"
	if _, ok := ref[key]; !ok {
		t.Fatalf("no stored digest %s", key)
	}
	ref[key] = strings.Repeat("0", 64)
	b, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	saved := embeddedDigests
	embeddedDigests = b
	t.Cleanup(func() { embeddedDigests = saved })
	code, s, _, text := runTiny(t, "--workload", "machine", "--seed", "1", "--trace", "0")
	if code == 0 || s.Correct || s.Failed != 1 || !strings.Contains(text, "FAIL digest "+key) {
		t.Fatalf("corrupted digest not reported: exit %d, summary correct=%v failed=%d\n%s", code, s.Correct, s.Failed, text)
	}
}

func TestDefinitionMatchesCode(t *testing.T) {
	def := loadDefinition(t)
	var e2e, layers []string
	for _, m := range def.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range def.PerLayer {
		layers = append(layers, m.Name)
	}
	if strings.Join(e2e, ",") != strings.Join(endToEnd, ",") {
		t.Errorf("end_to_end %v, code %v", e2e, endToEnd)
	}
	if strings.Join(layers, ",") != strings.Join(perLayer(), ",") {
		t.Errorf("per_layer %v, code %v", layers, perLayer())
	}
	for _, w := range def.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Reference values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3.5, 1.25, 9, 2}, 1.4375, 7.625},
		{[]float64{7, 1}, -0.5, 8.5},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestABRefusesGainOnFailures(t *testing.T) {
	better := map[string]string{"pass_s": "lower"}
	bound := map[string]float64{"pass_s": 0.25}
	runs := func(v float64, failed int) []summary {
		var out []summary
		// Eleven pairs, so ten remain when one failing run is left out.
		for i := 0; i < 11; i++ {
			out = append(out, summary{Correct: true, Attempted: 100,
				Metrics: map[string]metric{"pass_s": {Value: v + 0.001*float64(i), Unit: "s"}}})
		}
		out[0].Failed, out[0].Correct = failed, failed == 0
		return out
	}
	var buf bytes.Buffer
	if ok := abReport(&buf, runs(2, 0), runs(1, 0), better, bound); !ok || !strings.Contains(buf.String(), "  gain") {
		t.Fatalf("clean faster head: valid=%v\n%s", ok, buf.String())
	}
	buf.Reset()
	if ok := abReport(&buf, runs(2, 0), runs(1, 3), better, bound); ok || strings.Contains(buf.String(), "  gain") ||
		!strings.Contains(buf.String(), "no gain (failures)") {
		t.Fatalf("failing faster head: valid=%v\n%s", ok, buf.String())
	}
}
