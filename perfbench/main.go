// Command perfbench is the repository benchmark: it runs one named
// workload through the public entry points (experiment.NewRunner /
// Runner.Step, fleet.New / Manager.Step), checks the outputs, and prints
// the end-to-end metrics — or, with -trace 1, the per-layer metrics —
// ending with one JSON result line. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// options are one run's settings.
type options struct {
	seed   int64
	budget time.Duration // measuring time; episodes repeat until it is spent
}

// benchWorkload runs one workload untraced or traced.
type benchWorkload struct {
	run, traced func(options, *report) error
}

// workloads are the benchmark's workloads at their full size. The fleet
// holds its peak for most of its rounds so that the median round is a
// peak-load round rather than a point on the ramp, where a few rounds
// decide it and it swings between runs.
func workloads() map[string]benchWorkload {
	yl, wc := yahooLong(300, 6), wc2dBudget(150, 6)
	fc := fleetShape{rounds: 30, peak: 150, hold: 18, initial: 6, planEvery: 10, churn: 2, episodes: 3}
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

// endToEnd and perLayer name the metrics of the result line, untraced
// and traced; BENCHMARK.json lists the same names.
var endToEnd = []string{
	"setup_s", "round_ms_p50", "round_ms_tail", "tenant_rounds_per_s", "alloc_mb_per_round",
	"peak_heap_mb", "regret_frac", "usd_per_gtuple",
}

// layerMetric is a per-layer metric with its unit and the kind of
// workload that measures it (single, fleet, or both when empty).
type layerMetric struct{ name, unit, only string }

const (
	single    = "single"
	fleetOnly = "fleet"
)

var perLayer = []layerMetric{
	{"flink.run_slot_ms", "ms", single}, {"flink.run_slot_allocs", "count", single},
	{"streamsim.ticks", "count", ""}, {"flink.paused_s", "s", ""}, {"core.rescales", "count", ""},
	{"monitor.collect_us", "us", single}, {"core.decide_ms", "ms", single},
	{"core.decide_ms_tail", "ms", single}, {"core.decide_allocs", "count", single},
	{"osp.step_us", "us", single}, {"dag.gradient_us", "us", single},
	{"dag.gradient_allocs", "count", single}, {"ucb.observe_us", "us", single},
	{"ucb.select_us", "us", single}, {"gp.observations", "count", single},
	{"gp.refits", "count", single}, {"core.apply_ms", "ms", single},
	{"round.traced_ms", "ms", ""}, {"round.other_ms", "ms", ""}, {"trace.overhead_frac", "1", ""},
	{"fleet.step_ms", "ms", fleetOnly}, {"fleet.step_us_per_tenant", "us", fleetOnly},
	{"fleet.tenant_exponent", "1", fleetOnly}, {"fleet.admit_round_ms", "ms", fleetOnly},
	{"fleet.submit_us", "us", fleetOnly}, {"fleet.kill_us", "us", fleetOnly},
	{"fleet.checkpoint_ms", "ms", fleetOnly}, {"fleet.checkpoint_kb", "KiB", fleetOnly},
	{"fleet.replay_rounds_per_s", "1/s", fleetOnly}, {"event.events", "count", fleetOnly},
	{"event.journal_kb", "KiB", fleetOnly}, {"cluster.pods_max", "count", fleetOnly},
	{"planner.probes", "count", fleetOnly}, {"fleet.rounds", "count", fleetOnly},
	{"fleet.jobs_admitted", "count", fleetOnly}, {"fleet.jobs_departed", "count", fleetOnly},
	{"fleet.jobs_rejected", "count", fleetOnly}, {"fleet.jobs_planned", "count", fleetOnly},
	{"fleet.arbiter_decisions", "count", fleetOnly},
}

func perLayerNames() []string {
	out := make([]string, len(perLayer))
	for i, m := range perLayer {
		out[i] = m.name
	}
	return out
}

// addUnmeasured reports as 0 the per-layer metrics only the other kind
// of workload measures, so every traced result carries every name.
func addUnmeasured(rep *report, other, why string) {
	for _, m := range perLayer {
		if m.only == other {
			rep.add(m.name, 0, m.unit, why)
		}
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, workloads()))
}

func run(args []string, stdout, stderr io.Writer, all map[string]benchWorkload) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: yahoo-long, wc2d-budget or fleet-churn")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "measuring time; whole episodes repeat until it is spent")
	trace := fs.Int("trace", 0, "0 prints the end-to-end metrics, 1 the per-layer metrics of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := all[*name]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need -workload (yahoo-long, wc2d-budget, fleet-churn), -seconds > 0 and -trace 0|1\n")
		return 2
	}
	// Every workload runs with GOMAXPROCS = nproc and at most nproc
	// worker goroutines (LML workers default to GOMAXPROCS; the fleet
	// runs nproc shards of one decide worker).
	runtime.GOMAXPROCS(runtime.NumCPU())
	o := options{seed: *seed, budget: time.Duration(*seconds * float64(time.Second))}
	mach, err := json.Marshal(describeMachine(*name, *seed, *trace, *seconds))
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "machine %s\n", mach)

	rep := &report{}
	fn, want := w.run, endToEnd
	if *trace == 1 {
		fn, want = w.traced, perLayerNames()
	}
	if err := fn(o, rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if err := rep.write(stdout, want); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if !rep.correct() {
		return 1
	}
	return 0
}
