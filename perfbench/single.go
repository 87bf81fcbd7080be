package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"time"

	"dragster/internal/experiment"
	"dragster/internal/workload"
)

// singleJob is a workload of one job driven through experiment.Runner.
type singleJob struct {
	// scenario builds one episode's scenario from a sub-seed. Every field
	// the runner would default is set explicitly, so the traced driver
	// (which rebuilds the stack from public constructors) reads the same
	// values.
	scenario func(seed int64) (experiment.Scenario, error)
	// episodes is how many sub-seeds a run covers; the decision-quality
	// metrics aggregate over all of them.
	episodes int
}

// yahooLong is the paper's single-job shape: the Yahoo pipeline at
// 600-s slots under load alternating between its high and low levels.
func yahooLong(slots, episodes int) singleJob {
	return singleJob{episodes: episodes, scenario: func(seed int64) (experiment.Scenario, error) {
		spec, err := workload.Yahoo()
		if err != nil {
			return experiment.Scenario{}, err
		}
		rng := rand.New(rand.NewSource(seed))
		high := scaled(spec.HighRates, 0.95+0.1*rng.Float64())
		low := scaled(spec.LowRates, 0.95+0.1*rng.Float64())
		rates, err := workload.Cycle(25, high, low)
		if err != nil {
			return experiment.Scenario{}, err
		}
		return withDefaults(experiment.Scenario{
			Spec: spec, Rates: rates, Slots: slots, SlotSeconds: 600, Seed: seed,
		}), nil
	}}
}

// wc2dBudget is the vertical-scaling shape: WordCount over tasks × CPU
// under a task budget below the high-load optimum and a GP observation
// budget, with one load step.
func wc2dBudget(slots, episodes int) singleJob {
	return singleJob{episodes: episodes, scenario: func(seed int64) (experiment.Scenario, error) {
		spec, err := workload.WordCount2D()
		if err != nil {
			return experiment.Scenario{}, err
		}
		rng := rand.New(rand.NewSource(seed))
		low := scaled(spec.LowRates, 0.95+0.1*rng.Float64())
		high := scaled(spec.HighRates, 0.95+0.1*rng.Float64())
		rates, err := workload.StepAt(slots/4, low, high)
		if err != nil {
			return experiment.Scenario{}, err
		}
		return withDefaults(experiment.Scenario{
			Spec: spec, Rates: rates, Slots: slots, SlotSeconds: 30, Seed: seed,
			VerticalScaling: true, TaskBudget: 12, GPObservationBudget: 24,
		}), nil
	}}
}

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// withDefaults spells out the defaults experiment.NewRunner would apply.
func withDefaults(sc experiment.Scenario) experiment.Scenario {
	if sc.Seed == 0 {
		sc.Seed = 1
	}
	sc.NoiseSigma = 0.05
	sc.UtilNoiseSigma = 0.02
	sc.PricePerCoreHour = 0.08
	sc.MaxBufferSeconds = 120
	sc.StreamEngine = "flink"
	sc.InitialTasks = make([]int, sc.Spec.Graph.NumOperators())
	for i := range sc.InitialTasks {
		sc.InitialTasks[i] = 1
	}
	return sc
}

// episode is one complete untraced run of a scenario.
type episode struct {
	rounds    *timings
	allocB    uint64
	peakHeapB uint64
	trace     []experiment.SlotTrace
}

// runEpisode builds a Runner and steps it to the end, timing every
// round; with a kernel, each round is followed by the calibration kernel
// (see speed.go). A collection first gives every episode the same
// starting heap; heap figures are read between rounds, outside the
// timings.
func runEpisode(sc experiment.Scenario, k *kernel) (*episode, error) {
	runtime.GC()
	r, err := experiment.NewRunner(sc, experiment.DragsterSaddle())
	if err != nil {
		return nil, fmt.Errorf("NewRunner: %w", err)
	}
	ep := &episode{rounds: newTimings(k)}
	_, alloc0 := heapNow()
	var allocEnd uint64
	for !r.Done() {
		sp := startSpan()
		_, err := r.Step()
		wall, cpu := sp.end()
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", len(ep.rounds.wall), err)
		}
		live, alloc := heapNow()
		ep.peakHeapB = max(ep.peakHeapB, live)
		allocEnd = alloc
		ep.rounds.add(wall, cpu)
	}
	if n := r.SkippedRounds(); n > 0 {
		return nil, fmt.Errorf("%d rounds skipped for want of a metrics sample", n)
	}
	ep.allocB = allocEnd - alloc0
	ep.trace = r.Result().Trace
	return ep, nil
}

// digestTrace hashes what the job was given and what it achieved per
// round: tasks, CPU, steady throughput and the round's cost.
func digestTrace(trace []experiment.SlotTrace) uint64 {
	h := fnv.New64a()
	var prevCost float64
	for _, tr := range trace {
		for _, n := range tr.Tasks {
			writeU64(h, uint64(n))
		}
		for _, c := range tr.CPUMilli {
			writeU64(h, uint64(c))
		}
		writeU64(h, math.Float64bits(tr.SteadyThroughput))
		writeU64(h, math.Float64bits(tr.CostCum-prevCost))
		prevCost = tr.CostCum
	}
	return h.Sum64()
}

func writeU64(h hash.Hash, v uint64) {
	_, _ = h.Write(binary.LittleEndian.AppendUint64(nil, v)) // hash writes never fail
}

// quality scores a trace against the ground-truth optimum at each
// round's rates: regret share of optimal throughput, and dollars per
// 10⁹ processed tuples.
func quality(spec *workload.Spec, budget int, traces [][]experiment.SlotTrace) (regretFrac, usdPerG float64, err error) {
	opt := newOptima()
	var regret, optSum, processed, cost float64
	for _, trace := range traces {
		for _, tr := range trace {
			o, err := opt.at(spec, tr.Rates, budget)
			if err != nil {
				return 0, 0, err
			}
			regret += math.Max(0, o-tr.SteadyThroughput)
			optSum += o
			processed += tr.Processed
		}
		if len(trace) > 0 {
			cost += trace[len(trace)-1].CostCum
		}
	}
	if optSum <= 0 || processed <= 0 {
		return 0, 0, errors.New("empty trace")
	}
	return regret / optSum, cost / processed * 1e9, nil
}

// optima memoizes experiment.OptimalConfig by workload, rates and budget.
type optima map[string]float64

func newOptima() optima { return make(optima) }

func (o optima) at(spec *workload.Spec, rates []float64, budget int) (float64, error) {
	key := fmt.Sprint(spec.Name, rates, budget)
	if v, ok := o[key]; ok {
		return v, nil
	}
	best, err := experiment.OptimalConfig(spec, rates, budget)
	if err != nil {
		return 0, err
	}
	o[key] = best.Throughput
	return best.Throughput, nil
}

// scenarios derives the run's sub-seeds from the seed and builds one
// scenario per sub-seed.
func (w singleJob) scenarios(seed int64) ([]experiment.Scenario, error) {
	out := make([]experiment.Scenario, w.episodes)
	for k := range out {
		sc, err := w.scenario(seed*1000 + int64(k) + 1)
		if err != nil {
			return nil, err
		}
		out[k] = sc
	}
	return out, nil
}

// runSingle is the untraced run of a single-job workload: one episode
// per sub-seed, then sub-seed 0 again (every run checks that an episode
// repeats its digest), then more episodes round the sub-seeds until the
// time budget is spent, each repeat checked against its sub-seed's digest.
func runSingle(w singleJob, o options, rep *report) error {
	scs, err := w.scenarios(o.seed)
	if err != nil {
		return err
	}
	k := newKernel()
	setups, err := timeSetups(k, func() error {
		_, err := experiment.NewRunner(scs[0], experiment.DragsterSaddle())
		return err
	})
	if err != nil {
		return err
	}
	start := time.Now()
	var eps []*episode
	digests := make([]uint64, len(scs))
	var took time.Duration
	for i := 0; i <= len(scs) || time.Since(start)+took <= o.budget; i++ {
		s := i % len(scs)
		t0 := time.Now()
		ep, err := runEpisode(scs[s], k)
		rep.op("episode", err)
		if err != nil {
			return err
		}
		rep.attempted += len(ep.rounds.wall) - 1 // one op per round; the episode counted one
		d := digestTrace(ep.trace)
		if i < len(scs) {
			digests[s] = d
		}
		rep.check("digest", d == digests[s], "episode %d digest %016x, sub-seed %d first gave %016x", i, d, s, digests[s])
		checkBudget(rep, scs[s].TaskBudget, ep.trace)
		if i >= len(scs) {
			ep.trace = nil // only the digest of a repeat is needed; keep the heap flat
		}
		eps = append(eps, ep)
		took = time.Since(t0)
	}

	var rounds, wall, peaks []float64
	var loop time.Duration
	var alloc uint64
	var epP50, speeds []string
	for _, ep := range eps {
		scaled := ep.rounds.scaled()
		for i, d := range scaled {
			rounds = append(rounds, ms(d))
			wall = append(wall, ms(ep.rounds.wall[i]))
			loop += d
		}
		epP50 = append(epP50, fmt.Sprintf("%.4g", median(durations(scaled, ms))))
		speeds = append(speeds, fmt.Sprintf("%.3g", ep.rounds.speed()))
		alloc += ep.allocB
		peaks = append(peaks, float64(ep.peakHeapB)/1e6)
	}
	traces := make([][]experiment.SlotTrace, len(scs))
	for s := range scs {
		traces[s] = eps[s].trace
	}
	regret, usd, err := quality(scs[0].Spec, scs[0].TaskBudget, traces)
	if err != nil {
		return err
	}
	h := fnv.New64a()
	for _, d := range digests {
		writeU64(h, d)
	}
	n := len(rounds)
	pct, tailV := tail(rounds, len(scs)*scs[0].Slots)
	_, wallTail := tail(wall, len(scs)*scs[0].Slots)
	rep.add("setup_s", median(durations(setups.scaled(), secs)), "s", fmt.Sprintf("median of %d set-ups", len(setups.wall)))
	rep.add("round_ms_p50", median(rounds), "ms", fmt.Sprintf("n=%d rounds, %d episodes", n, len(eps)))
	rep.add("round_ms_tail", tailV, "ms", fmt.Sprintf("p%g, n=%d", pct, n))
	rep.add("tenant_rounds_per_s", float64(n)/loop.Seconds(), "1/s", "1 tenant")
	rep.add("alloc_mb_per_round", float64(alloc)/1e6/float64(n), "MB", "")
	rep.add("peak_heap_mb", median(peaks), "MB", "median over episodes of the peak live heap")
	rep.add("regret_frac", regret, "1", fmt.Sprintf("over %d sub-seeds", len(scs)))
	rep.add("usd_per_gtuple", usd, "USD", fmt.Sprintf("over %d sub-seeds", len(scs)))
	rep.note("digest %016x", h.Sum64())
	rep.note("episode round p50 ms: %s", strings.Join(epP50, " "))
	rep.note("host speed per episode (reference = 1): %s", strings.Join(speeds, " "))
	rep.note("wall clock: round p50 %.4g ms, p%g %.4g ms, set-up p50 %.4g s",
		median(wall), pct, wallTail, median(durations(setups.wall, secs)))
	return nil
}

// checkBudget checks Σ tasks ≤ budget on every round (budget 0 = none).
func checkBudget(rep *report, budget int, trace []experiment.SlotTrace) {
	if budget == 0 {
		return
	}
	for _, tr := range trace {
		rep.check("budget", tr.TotalTasks <= budget, "slot %d runs %d tasks over budget %d", tr.Slot, tr.TotalTasks, budget)
	}
}

// equalTraces reports the first slot at which two traces differ.
func equalTraces(a, b []experiment.SlotTrace) (int, bool) {
	if len(a) != len(b) {
		return min(len(a), len(b)), false
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			return i, false
		}
	}
	return 0, true
}
