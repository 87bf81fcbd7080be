package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// small are the workloads cut down to a few rounds, for tests.
func small() map[string]benchWorkload {
	yl, wc := yahooLong(12, 2), wc2dBudget(16, 2)
	fc := fleetShape{rounds: 8, peak: 12, hold: 2, initial: 3, planEvery: 3, churn: 1, episodes: 2}
	return map[string]benchWorkload{
		"yahoo-long": {
			run:    func(o options, r *report) error { return runSingle(yl, o, r) },
			traced: func(o options, r *report) error { return runSingleTraced(yl, o, r) },
		},
		"wc2d-budget": {
			run:    func(o options, r *report) error { return runSingle(wc, o, r) },
			traced: func(o options, r *report) error { return runSingleTraced(wc, o, r) },
		},
		"fleet-churn": {
			run:    func(o options, r *report) error { return runFleet(fc, o, r) },
			traced: func(o options, r *report) error { return runFleetTraced(fc, o, r) },
		},
	}
}

// spec is the part of BENCHMARK.json the program must agree with.
type spec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runSmall runs one small workload and returns its output lines and the
// parsed result line.
func runSmall(t *testing.T, workload string, seed int64, trace int) ([]string, result) {
	t.Helper()
	var out, errOut bytes.Buffer
	args := []string{"--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", "0.01", "--trace", fmt.Sprint(trace)}
	if code := run(args, &out, &errOut, small()); code != 0 {
		t.Fatalf("%s trace %d exited %d: %s\n%s", workload, trace, code, errOut.String(), out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	return lines, res
}

// TestSmoke runs every workload untraced and traced and checks that
// every metric BENCHMARK.json names is printed with its unit, that the
// result line carries exactly those metrics, and that every correctness
// check passed.
func TestSmoke(t *testing.T) {
	s := loadSpec(t)
	for _, w := range []struct{ Name string }{{"yahoo-long"}, {"wc2d-budget"}, {"fleet-churn"}} {
		for trace, want := range [][]struct{ Name, Unit string }{s.EndToEnd, s.PerLayer} {
			lines, res := runSmall(t, w.Name, 7, trace)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace %d: correct=%v failed=%d attempted=%d\n%s",
					w.Name, trace, res.Correct, res.Failed, res.Attempted, strings.Join(lines, "\n"))
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %d: result has %d metrics, want %d", w.Name, trace, len(res.Metrics), len(want))
			}
			text := strings.Join(lines, "\n")
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace %d: metric %s = %+v in the result, want unit %s", w.Name, trace, m.Name, got, m.Unit)
				}
				line := regexp.MustCompile(`(?m)^metric ` + regexp.QuoteMeta(m.Name) + ` +\S+ ` + regexp.QuoteMeta(m.Unit) + `(\s|$)`)
				if !line.MatchString(text) {
					t.Errorf("%s trace %d: no printed line for %s in %s", w.Name, trace, m.Name, m.Unit)
				}
			}
			if !strings.HasPrefix(lines[0], "machine {") {
				t.Errorf("%s: first line %q does not record the machine", w.Name, lines[0])
			}
		}
	}
}

// TestNamesMatchSpec checks the program's metric lists against
// BENCHMARK.json, so the two cannot drift apart.
func TestNamesMatchSpec(t *testing.T) {
	s := loadSpec(t)
	names := func(ms []struct{ Name, Unit string }) []string {
		out := make([]string, len(ms))
		for i, m := range ms {
			out[i] = m.Name
		}
		return out
	}
	if got := names(s.EndToEnd); fmt.Sprint(got) != fmt.Sprint(endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, program %v", got, endToEnd)
	}
	if got := names(s.PerLayer); fmt.Sprint(got) != fmt.Sprint(perLayerNames()) {
		t.Errorf("BENCHMARK.json per_layer %v, program %v", got, perLayerNames())
	}
	for i, m := range s.PerLayer {
		if i < len(perLayer) && perLayer[i].unit != m.Unit {
			t.Errorf("per-layer %s: BENCHMARK.json unit %s, program %s", m.Name, m.Unit, perLayer[i].unit)
		}
	}
	all := workloads()
	for _, w := range s.Workloads {
		if _, ok := all[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not in the program", w.Name)
		}
	}
}

// TestDigestRepeats checks that two runs of one seed produce the same
// output digest, and that another seed produces different inputs.
func TestDigestRepeats(t *testing.T) {
	digest := func(lines []string) string {
		for _, l := range lines {
			if strings.HasPrefix(l, "digest ") {
				return l
			}
		}
		t.Fatal("no digest line")
		return ""
	}
	for _, w := range []string{"yahoo-long", "wc2d-budget", "fleet-churn"} {
		a, _ := runSmall(t, w, 3, 0)
		b, _ := runSmall(t, w, 3, 0)
		c, _ := runSmall(t, w, 4, 0)
		if digest(a) != digest(b) {
			t.Errorf("%s: seed 3 gave %s then %s", w, digest(a), digest(b))
		}
		if digest(a) == digest(c) {
			t.Errorf("%s: seeds 3 and 4 gave the same %s", w, digest(a))
		}
	}
}

// TestShadowMatchesController replays the controller's decide layers on
// the shadow for a few rounds of each single-job workload, with and
// without a budget, and checks the comparison catches a wrong target.
func TestShadowMatchesController(t *testing.T) {
	for name, w := range map[string]singleJob{"yahoo-long": yahooLong(6, 1), "wc2d-budget": wc2dBudget(14, 1)} {
		sc, err := w.scenario(5)
		if err != nil {
			t.Fatal(err)
		}
		te, err := runTraced(sc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(te.shadow.ospStep) != sc.Slots || len(te.shadow.observe) == 0 {
			t.Errorf("%s: shadow ran %d osp steps and %d observes over %d slots",
				name, len(te.shadow.ospStep), len(te.shadow.observe), sc.Slots)
		}
		ref, err := runEpisode(sc, nil)
		if err != nil {
			t.Fatal(err)
		}
		if slot, ok := equalTraces(te.trace, ref.trace); !ok {
			t.Errorf("%s: traced driver diverges from Runner at slot %d", name, slot)
		}

		d, err := newDriver(sc)
		if err != nil {
			t.Fatal(err)
		}
		sh, err := newShadow(sc)
		if err != nil {
			t.Fatal(err)
		}
		_, snap, diag, tasks, cpu, err := d.step(0)
		if err != nil {
			t.Fatal(err)
		}
		diag.Y[0] *= 1 + 1e-12
		if err := sh.round(snap, diag, tasks, cpu); err == nil {
			t.Errorf("%s: shadow accepted a perturbed controller target", name)
		}
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{1000, 99}, {200, 95}, {40, 75}, {20, 50}} {
		if p, _ := tail(xs[:c.n], c.n); p != c.want {
			t.Errorf("tail of %d samples at p%g, want p%g", c.n, p, c.want)
		}
	}
}

// TestScaled checks that each span's CPU time is scaled by the reference
// kernel time over the median kernel time of its window, so one slow
// kernel run does not move it.
func TestScaled(t *testing.T) {
	ms10 := 10 * time.Millisecond
	for _, c := range []struct {
		kern []time.Duration
		want time.Duration
	}{
		{[]time.Duration{500, 500, 500, 500, 500, 125}, 5 * time.Millisecond},
		{[]time.Duration{125, 125, 9000, 125, 125, 125}, 20 * time.Millisecond},
	} {
		tm := &timings{}
		for i := range c.kern {
			tm.cpu = append(tm.cpu, ms10)
			tm.kern = append(tm.kern, c.kern[i]*time.Microsecond)
		}
		for i, got := range tm.scaled() {
			if got != c.want {
				t.Errorf("kernel %v: span %d scaled to %v, want %v", c.kern, i, got, c.want)
			}
		}
	}
}

// TestKernelAllocates checks that the calibration kernel allocates
// nothing, so it leaves the heap metrics alone.
func TestKernelAllocatesNothing(t *testing.T) {
	k := newKernel()
	if n := testing.AllocsPerRun(10, func() { k.run() }); n != 0 {
		t.Errorf("kernel allocates %v objects per run", n)
	}
}
