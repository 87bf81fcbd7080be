package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"dragster/internal/chaos"
	"dragster/internal/cluster"
	"dragster/internal/core"
	"dragster/internal/dag"
	"dragster/internal/experiment"
	"dragster/internal/flink"
	"dragster/internal/monitor"
	"dragster/internal/stats"
	"dragster/internal/streamsim"
	"dragster/internal/telemetry"
	"dragster/internal/workload"
)

// driver makes the calls experiment.Runner.Step makes, through the same
// public functions, with a timed span around each layer call. Its
// per-slot trace must equal the Runner's for the same scenario.
type driver struct {
	sc      experiment.Scenario
	ctrl    *core.Controller
	job     *flink.Job
	mon     *monitor.Monitor
	retrier *core.RescaleRetrier
	frep    dag.FlowReport
	trace   []experiment.SlotTrace
}

// newDriver assembles the stack as experiment.NewRunner does for a
// Dragster policy on the Flink substrate without chaos.
func newDriver(sc experiment.Scenario) (*driver, error) {
	sc.Counters = telemetry.NewCounters()
	policy, err := experiment.DragsterSaddle()(&sc)
	if err != nil {
		return nil, err
	}
	ctrl, ok := policy.(*core.Controller)
	if !ok {
		return nil, fmt.Errorf("policy %s is not a Dragster controller", policy.Name())
	}
	spec, g := sc.Spec, sc.Spec.Graph
	nNodes := (g.NumOperators()*spec.MaxTasks+1)/4 + 1
	k8s := cluster.New(cluster.WithPricePerCoreHour(sc.PricePerCoreHour))
	if err := k8s.AddNodes("node", nNodes, cluster.ResourceSpec{CPUMilli: 4000, MemoryMB: 8192}); err != nil {
		return nil, err
	}
	engine, err := streamsim.New(streamsim.Config{
		Graph:            g,
		Models:           spec.Models,
		NoiseSigma:       sc.NoiseSigma,
		UtilNoiseSigma:   sc.UtilNoiseSigma,
		MaxBufferPerEdge: sc.MaxBufferSeconds * math.Max(peakRate(sc.Rates, sc.Slots), 1),
		RNG:              stats.NewRNG(sc.Seed),
	})
	if err != nil {
		return nil, err
	}
	session, err := flink.NewSession(k8s, flink.DefaultOptions())
	if err != nil {
		return nil, err
	}
	job, err := session.SubmitJob(spec.Name, g, engine, sc.InitialTasks)
	if err != nil {
		return nil, err
	}
	mon, err := monitor.New(monitor.DirectSource{Job: job}, monitor.Config{})
	if err != nil {
		return nil, err
	}
	retrier, err := core.NewRescaleRetrier(core.RetryConfig{
		Retryable: func(err error) bool { return errors.Is(err, chaos.ErrInjected) },
		Counters:  sc.Counters,
	})
	if err != nil {
		return nil, err
	}
	return &driver{sc: sc, ctrl: ctrl, job: job, mon: mon, retrier: retrier}, nil
}

func peakRate(f workload.RateFunc, slots int) float64 {
	var peak float64
	for s := 0; s < slots; s++ {
		for _, r := range f(s, 0) {
			peak = math.Max(peak, r)
		}
	}
	return peak
}

// spans are one traced round's layer timings.
type spans struct {
	round, runSlot, collect, decide, apply time.Duration
	runSlotAllocs, decideAllocs            uint64
}

func (s spans) other() time.Duration { return s.round - s.runSlot - s.collect - s.decide - s.apply }

// step runs slot number slot and returns its spans, the snapshot and
// the decision (for the shadow to replay).
func (d *driver) step(slot int) (spans, *monitor.Snapshot, *core.LastTargets, []int, []int, error) {
	var sp spans
	sc, spec, g := d.sc, d.sc.Spec, d.sc.Spec.Graph
	m := g.NumOperators()
	start := time.Now()
	rates := sc.Rates(slot, 0)

	a0 := mallocsNow()
	t := time.Now()
	rep, err := d.job.RunSlot(sc.SlotSeconds, func(sec int) []float64 { return sc.Rates(slot, sec) })
	sp.runSlot = time.Since(t)
	sp.runSlotAllocs = mallocsNow() - a0
	if err != nil {
		return sp, nil, nil, nil, nil, err
	}
	tasksNow := d.job.EffectiveParallelism()
	cpuNow := d.job.EffectiveCPUMilli()
	caps := make([]float64, m)
	for i, n := range tasksNow {
		if ra, ok := spec.Models[i].(streamsim.ResourceAware); ok && cpuNow[i] > 0 {
			caps[i] = ra.CapacityWithCPU(n, cpuNow[i])
		} else {
			caps[i] = spec.Models[i].Capacity(n)
		}
	}
	if err := g.EvaluateInto(&d.frep, rates, caps); err != nil {
		return sp, nil, nil, nil, nil, err
	}
	viol := make([]float64, m)
	for i := range viol {
		viol[i] = d.frep.Demand[i] - caps[i]
	}
	tr := experiment.SlotTrace{
		Slot:               slot,
		Rates:              append([]float64(nil), rates...),
		Tasks:              tasksNow,
		CPUMilli:           cpuNow,
		TotalTasks:         sumInts(tasksNow),
		SteadyThroughput:   d.frep.Throughput,
		MeasuredThroughput: rep.Throughput,
		Processed:          rep.ProcessedTuples,
		Dropped:            rep.DroppedTuples,
		PausedSeconds:      rep.PausedSeconds,
		CostCum:            rep.CostSoFar,
		AvgLatencySec:      rep.AvgLatencySec,
		Violations:         viol,
	}

	t = time.Now()
	snap, err := d.mon.Collect()
	sp.collect = time.Since(t)
	if err != nil {
		return sp, nil, nil, nil, nil, err
	}

	var desired, desiredCPU []int
	var diag *core.LastTargets
	a0 = mallocsNow()
	t = time.Now()
	if sc.VerticalScaling {
		desired, desiredCPU, diag, err = d.ctrl.DecideResources(snap)
	} else {
		desired, diag, err = d.ctrl.DecideDetailed(snap)
	}
	sp.decide = time.Since(t)
	sp.decideAllocs = mallocsNow() - a0
	if err != nil {
		return sp, nil, nil, nil, nil, err
	}
	tr.TargetY = diag.Y
	d.trace = append(d.trace, tr)
	if slot+1 < sc.Slots {
		t = time.Now()
		err = d.retrier.Apply(d.job, desired, desiredCPU, slot)
		sp.apply = time.Since(t)
		if err != nil {
			return sp, nil, nil, nil, nil, err
		}
	}
	sp.round = time.Since(start)
	return sp, snap, diag, desired, desiredCPU, nil
}

func sumInts(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}

// tracedEpisode runs the scenario through the driver and the shadow.
type tracedEpisode struct {
	spans     []spans
	shadow    *shadow
	trace     []experiment.SlotTrace
	gpMaxObs  int
	gpRefits  uint64
	ticks     int
	pausedSec int
	rescales  int
}

func runTraced(sc experiment.Scenario) (*tracedEpisode, error) {
	runtime.GC() // start from the heap an untraced episode starts from
	d, err := newDriver(sc)
	if err != nil {
		return nil, err
	}
	sh, err := newShadow(sc)
	if err != nil {
		return nil, err
	}
	m := sc.Spec.Graph.NumOperators()
	epoch0 := make([]uint64, m)
	for i := range epoch0 {
		epoch0[i] = d.ctrl.Searcher(i).Regressor().KernelEpoch()
	}
	te := &tracedEpisode{shadow: sh}
	for slot := 0; slot < sc.Slots; slot++ {
		sp, snap, diag, tasks, cpu, err := d.step(slot)
		if err != nil {
			return nil, fmt.Errorf("traced slot %d: %w", slot, err)
		}
		te.spans = append(te.spans, sp)
		if err := sh.round(snap, diag, tasks, cpu); err != nil {
			return nil, fmt.Errorf("shadow slot %d: %w", slot, err)
		}
		for i := 0; i < m; i++ {
			reg, sreg := d.ctrl.Searcher(i).Regressor(), sh.searchers[i].Regressor()
			if reg.Len() != sreg.Len() || reg.KernelEpoch() != sreg.KernelEpoch() {
				return nil, fmt.Errorf("shadow slot %d operator %d: GP holds %d obs at kernel epoch %d, controller %d at %d",
					slot, i, sreg.Len(), sreg.KernelEpoch(), reg.Len(), reg.KernelEpoch())
			}
			te.gpMaxObs = max(te.gpMaxObs, reg.Len())
		}
	}
	for i := range epoch0 {
		te.gpRefits += d.ctrl.Searcher(i).Regressor().KernelEpoch() - epoch0[i]
	}
	te.trace = d.trace
	for i, tr := range d.trace {
		te.ticks += sc.SlotSeconds
		te.pausedSec += tr.PausedSeconds
		if i > 0 && fmt.Sprint(tr.Tasks, tr.CPUMilli) != fmt.Sprint(d.trace[i-1].Tasks, d.trace[i-1].CPUMilli) {
			te.rescales++
		}
	}
	return te, nil
}

// runSingleTraced is the traced run of a single-job workload: pairs of
// an untraced Runner episode (the reference) and a traced driver episode
// with its shadow, until the time budget is spent.
func runSingleTraced(w singleJob, o options, rep *report) error {
	scs, err := w.scenarios(o.seed)
	if err != nil {
		return err
	}
	sc := scs[0]
	start := time.Now()
	var untraced []float64
	var all []spans
	var last *tracedEpisode
	var pair time.Duration
	for last == nil || time.Since(start)+pair <= o.budget {
		t0 := time.Now()
		ref, err := runEpisode(sc, nil)
		rep.op("episode", err)
		if err != nil {
			return err
		}
		untraced = append(untraced, durations(ref.rounds.wall, ms)...)
		te, err := runTraced(sc)
		rep.op("traced episode", err)
		if err != nil {
			return err
		}
		rep.attempted += 2 * (len(ref.rounds.wall) - 1)
		slot, same := equalTraces(te.trace, ref.trace)
		rep.check("traced_trace", same, "traced driver diverges from Runner at slot %d", slot)
		all = append(all, te.spans...)
		last = te
		pair = time.Since(t0)
	}

	var round, runSlot, collect, decide, apply, runAllocs, decAllocs []float64
	var total, other time.Duration
	var sum spans
	for _, s := range all {
		round = append(round, ms(s.round))
		runSlot = append(runSlot, ms(s.runSlot))
		collect = append(collect, us(s.collect))
		decide = append(decide, ms(s.decide))
		apply = append(apply, ms(s.apply))
		runAllocs = append(runAllocs, float64(s.runSlotAllocs))
		decAllocs = append(decAllocs, float64(s.decideAllocs))
		total += s.round
		other += s.other()
		sum.runSlot += s.runSlot
		sum.collect += s.collect
		sum.decide += s.decide
		sum.apply += s.apply
	}
	n := len(all)
	sh := last.shadow
	pct, decTail := tail(decide, sc.Slots)
	rep.add("flink.run_slot_ms", median(runSlot), "ms", fmt.Sprintf("p50 per call, n=%d", n))
	rep.add("flink.run_slot_allocs", median(runAllocs), "count", "mallocs per call, p50")
	rep.add("streamsim.ticks", float64(last.ticks), "count", "simulated seconds per episode")
	rep.add("flink.paused_s", float64(last.pausedSec), "s", "rescale pause per episode")
	rep.add("core.rescales", float64(last.rescales), "count", "configuration changes per episode")
	rep.add("monitor.collect_us", median(collect), "us", "p50 per call")
	rep.add("core.decide_ms", median(decide), "ms", "p50 per call")
	rep.add("core.decide_ms_tail", decTail, "ms", fmt.Sprintf("p%g, n=%d", pct, n))
	rep.add("core.decide_allocs", median(decAllocs), "count", "mallocs per call, p50")
	rep.add("osp.step_us", median(durations(sh.ospStep, us)), "us", "shadow ObserveViolations+Step, p50")
	rep.add("dag.gradient_us", median(durations(sh.gradient, us)), "us", "p50 per call")
	rep.add("dag.gradient_allocs", median(sh.gradAllocs), "count", "mallocs per call, p50")
	rep.add("ucb.observe_us", median(durations(sh.observe, us)), "us", fmt.Sprintf("shadow, p50 of %d calls", len(sh.observe)))
	rep.add("ucb.select_us", median(durations(sh.sel, us)), "us", fmt.Sprintf("shadow, p50 of %d calls", len(sh.sel)))
	rep.add("gp.observations", float64(last.gpMaxObs), "count", "max retained by one operator GP")
	rep.add("gp.refits", float64(last.gpRefits), "count", "kernel epochs per episode, all operators")
	rep.add("core.apply_ms", median(apply), "ms", "p50 per call")
	perRound := func(d time.Duration) float64 { return ms(d) / float64(n) }
	rep.note("reconcile (mean ms per round): run_slot %.4f + collect %.4f + decide %.4f + apply %.4f + other %.4f = traced round %.4f",
		perRound(sum.runSlot), perRound(sum.collect), perRound(sum.decide), perRound(sum.apply), perRound(other), perRound(total))
	rep.add("round.traced_ms", perRound(total), "ms", "mean traced round")
	rep.add("round.other_ms", perRound(other), "ms", "mean per round; layer spans + other = traced round")
	rep.add("trace.overhead_frac", median(round)/median(untraced)-1, "1", "traced vs untraced round p50")
	addUnmeasured(rep, fleetOnly, "fleet layer unused")
	return nil
}
