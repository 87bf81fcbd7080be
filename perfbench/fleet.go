package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"dragster/internal/fleet"
	"dragster/internal/fleet/event"
	"dragster/internal/workload"
)

// fleetShape sizes the fleet-churn workload.
type fleetShape struct {
	rounds    int // fleet rounds in the primary run
	peak      int // running tenants aimed for at the top of the ramp
	hold      int // rounds held at the peak between the ramps
	initial   int // tenants declared in the config, present from round 0
	planEvery int // every planEvery-th dynamic tenant arrives with PlanOnAdmit
	churn     int // extra kill+submit pairs per round on top of the ramp
	episodes  int // primary runs per benchmark run (same seed, same digest)
}

// input is one external input posted before a round.
type input struct {
	submit *fleet.JobSpec
	kill   string
}

// fleetRun is the seed's fleet: config, per-round inputs, and the specs
// of every dynamic tenant (a resumed replica needs them).
type fleetRun struct {
	cfg     fleet.Config
	inputs  [][]input
	dynamic map[string]fleet.JobSpec
	mid     int // checkpoint round
}

// plan generates the seeded fleet. The running count follows a fixed
// trapezoid (initial → peak, held, → initial); the seed picks each tenant's
// load level and cycle, and which of the oldest tenants are killed.
func (s fleetShape) plan(seed int64) (*fleetRun, error) {
	rng := rand.New(rand.NewSource(seed))
	builders := []func() (*workload.Spec, error){
		workload.Group, workload.AsyncIO, workload.Join, workload.Window, workload.WordCount, workload.Yahoo,
	}
	// Workloads go round-robin, so every seed runs the same mix; kills
	// pick among the oldest live tenants, which keeps the mix steady.
	made := 0
	tenant := func(name string) (fleet.JobSpec, error) {
		spec, err := builders[made%len(builders)]()
		made++
		if err != nil {
			return fleet.JobSpec{}, err
		}
		f := 0.9 + 0.2*rng.Float64()
		rates, err := workload.Cycle(3+rng.Intn(6), scaled(spec.LowRates, f), scaled(spec.HighRates, f))
		if err != nil {
			return fleet.JobSpec{}, err
		}
		return fleet.JobSpec{Name: name, Workload: spec, Rates: rates}, nil
	}
	fr := &fleetRun{inputs: make([][]input, s.rounds), dynamic: make(map[string]fleet.JobSpec), mid: s.rounds / 2}
	var live []string
	var jobs []fleet.JobSpec
	for i := 0; i < s.initial; i++ {
		js, err := tenant(fmt.Sprintf("base-%02d", i))
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, js)
		live = append(live, js.Name)
	}
	up := (s.rounds - 1 - s.hold) / 2
	target := func(r int) int {
		switch {
		case r <= up:
			return s.initial + (s.peak-s.initial)*r/up
		case r <= up+s.hold:
			return s.peak
		}
		return s.peak - (s.peak-s.initial)*(r-up-s.hold)/(s.rounds-1-up-s.hold)
	}
	next := 0
	for r := 1; r < s.rounds; r++ {
		delta := target(r) - target(r-1)
		submits, kills := s.churn+max(delta, 0), s.churn+max(-delta, 0)
		for k := 0; k < kills && len(live) > 0; k++ {
			i := rng.Intn(min(len(live), len(builders)))
			fr.inputs[r] = append(fr.inputs[r], input{kill: live[i]})
			live = append(live[:i], live[i+1:]...)
		}
		for k := 0; k < submits; k++ {
			js, err := tenant(fmt.Sprintf("t-%04d", next))
			if err != nil {
				return nil, err
			}
			next++
			js.PlanOnAdmit = next%s.planEvery == 0
			fr.dynamic[js.Name] = js
			fr.inputs[r] = append(fr.inputs[r], input{submit: &js})
			live = append(live, js.Name)
		}
	}
	fr.cfg = fleet.Config{
		Jobs:            jobs,
		Slots:           s.rounds,
		SlotSeconds:     60,
		Seed:            seed,
		TotalTaskBudget: 3 * s.peak,
		MaxQueue:        4 * s.peak,
		Shards:          runtime.NumCPU(), // Shards × DecideWorkers = nproc
		DecideWorkers:   1,
	}
	if fr.cfg.Seed == 0 {
		fr.cfg.Seed = 1
	}
	return fr, nil
}

// fleetRound is one primary round's measurements.
type fleetRound struct {
	round, step    time.Duration
	submit, kill   time.Duration
	submits, kills int
	running        int
	plannedAdmit   bool
	pods           int
}

// fleetEpisode is one primary run (and, when resumed, its replica).
type fleetEpisode struct {
	rounds     []fleetRound // rounds 1.. (round 0 is set-up)
	times      *timings     // the rounds' wall times, with kernel runs when untraced
	allocB     uint64
	peakHeapB  uint64
	traceHash  uint64
	digest     uint64
	overruns   int
	skipped    int
	ckpt       time.Duration
	ckptBytes  int
	failover   float64 // ResumeReader seconds
	replayed   int
	replicaOK  bool
	replicaDig uint64
	mgr        *fleet.Manager
}

// post applies round r's inputs, timing Submit and Kill.
func post(m *fleet.Manager, ins []input, fr *fleetRound, rep *report) error {
	for _, in := range ins {
		t := time.Now()
		if in.submit != nil {
			err := m.Submit(*in.submit)
			fr.submit += time.Since(t)
			fr.submits++
			rep.op("submit", err)
			if err != nil {
				return err
			}
			continue
		}
		err := m.Kill(in.kill)
		fr.kill += time.Since(t)
		fr.kills++
		rep.op("kill", err)
		if err != nil {
			return err
		}
	}
	return nil
}

// runFleetEpisode runs the primary to the end, checkpointing at the mid
// round. With resume it then rebuilds a replica from the checkpoint and
// drives it to the end on the same inputs. With a kernel, each round is
// followed by the calibration kernel (see speed.go). A collection first
// gives every episode the same starting heap.
func runFleetEpisode(fr *fleetRun, k *kernel, resume, traced bool, rep *report) (*fleetEpisode, error) {
	runtime.GC()
	ep := &fleetEpisode{times: newTimings(k)}
	m, err := fleet.New(fr.cfg)
	if err != nil {
		return nil, err
	}
	err = m.Step()
	rep.op("round", err)
	if err != nil {
		return nil, err
	}
	var ckpt bytes.Buffer
	_, alloc0 := heapNow()
	var allocEnd uint64
	seen := len(m.Events())
	for r := 1; r < fr.cfg.Slots; r++ {
		if r == fr.mid {
			t := time.Now()
			err := m.WriteCheckpoint(&ckpt)
			ep.ckpt = time.Since(t)
			ep.ckptBytes = ckpt.Len()
			if err != nil {
				return nil, fmt.Errorf("checkpoint: %w", err)
			}
		}
		var fr1 fleetRound
		sp := startSpan()
		if err := post(m, fr.inputs[r], &fr1, rep); err != nil {
			return nil, err
		}
		t := time.Now()
		err := m.Step()
		fr1.step = time.Since(t)
		var cpu time.Duration
		fr1.round, cpu = sp.end()
		rep.op("round", err)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
		running, _ := m.Metrics().GaugeValue("fleet_running_jobs")
		fr1.running = int(running)
		if traced {
			evs := m.Events()
			for _, e := range evs[seen:] {
				if e.Type == event.TypeAdmit && m.PlanFor(e.Job) != nil {
					fr1.plannedAdmit = true
				}
			}
			seen = len(evs)
			fr1.pods = len(m.Cluster().PodsView())
		}
		ep.rounds = append(ep.rounds, fr1)
		live, alloc := heapNow()
		ep.peakHeapB = max(ep.peakHeapB, live)
		allocEnd = alloc
		ep.times.add(fr1.round, cpu)
	}
	ep.allocB = allocEnd - alloc0
	res := m.Result()
	ep.traceHash = m.TraceHash()
	ep.overruns = res.BudgetOverruns
	ep.skipped = res.SkippedRounds
	ep.mgr = m
	ep.digest = digestFleet(m.Jobs())
	if !resume {
		return ep, nil
	}
	t := time.Now()
	replica, err := fleet.ResumeReader(fr.cfg, bytes.NewReader(ckpt.Bytes()), fr.dynamic)
	ep.failover = time.Since(t).Seconds()
	ep.replayed = fr.mid
	rep.op("failover", err)
	if err != nil {
		return nil, err
	}
	for r := fr.mid; r < fr.cfg.Slots; r++ {
		var ignored fleetRound
		if err := post(replica, fr.inputs[r], &ignored, rep); err != nil {
			return nil, err
		}
		err := replica.Step()
		rep.op("round", err)
		if err != nil {
			return nil, fmt.Errorf("replica round %d: %w", r, err)
		}
	}
	ep.replicaOK = replica.TraceHash() == ep.traceHash
	ep.replicaDig = digestFleet(replica.Jobs())
	return ep, nil
}

// digestFleet hashes every tenant-round's tasks, steady throughput and
// attributed cost.
func digestFleet(jobs []fleet.JobResult) uint64 {
	h := fnv.New64a()
	for _, j := range jobs {
		_, _ = h.Write([]byte(j.Name)) // hash writes never fail
		var prev float64
		for _, r := range j.Rounds {
			for _, n := range r.Tasks {
				writeU64(h, uint64(n))
			}
			writeU64(h, math.Float64bits(r.Steady))
			writeU64(h, math.Float64bits(r.CostCum-prev))
			prev = r.CostCum
		}
	}
	return h.Sum64()
}

// fleetQuality scores every tenant-round against the tenant's own
// unbudgeted optimum at that round's rates, and prices processed tuples
// at the attributed cost.
func fleetQuality(jobs []fleet.JobResult, fr *fleetRun) (regretFrac, usdPerG float64, err error) {
	specs := make(map[string]*workload.Spec)
	for _, js := range fr.cfg.Jobs {
		specs[js.Name] = js.Workload
	}
	for name, js := range fr.dynamic {
		specs[name] = js.Workload
	}
	opt := newOptima()
	var regret, optSum, tuples, cost float64
	for _, j := range jobs {
		cost += j.Cost
		for _, r := range j.Rounds {
			o, err := opt.at(specs[j.Name], r.Rates, 0)
			if err != nil {
				return 0, 0, err
			}
			regret += math.Max(0, o-r.Steady)
			optSum += o
			tuples += r.Measured * float64(fr.cfg.SlotSeconds)
		}
	}
	if optSum <= 0 || tuples <= 0 {
		return 0, 0, fmt.Errorf("fleet ran no tenant-rounds")
	}
	return regret / optSum, cost / tuples * 1e9, nil
}

// checkFleet records the correctness checks of one episode.
func checkFleet(rep *report, ep *fleetEpisode, resumed bool) {
	rep.check("budget", ep.overruns == 0, "%d rounds over the global task budget", ep.overruns)
	rep.check("skipped", ep.skipped == 0, "%d tenant-rounds skipped for want of metrics", ep.skipped)
	if resumed {
		rep.check("replica_trace", ep.replicaOK, "replica trace hash differs from the primary's %016x", ep.traceHash)
		rep.check("replica_digest", ep.replicaDig == ep.digest, "replica digest %016x, primary %016x", ep.replicaDig, ep.digest)
	}
}

// fleetSetup is one set-up: New plus the admission round of the
// config tenants.
func fleetSetup(fr *fleetRun) error {
	m, err := fleet.New(fr.cfg)
	if err != nil {
		return err
	}
	return m.Step()
}

// runFleet is the untraced run of fleet-churn.
func runFleet(s fleetShape, o options, rep *report) error {
	fr, err := s.plan(o.seed)
	if err != nil {
		return err
	}
	k := newKernel()
	setups, err := timeSetups(k, func() error { return fleetSetup(fr) })
	if err != nil {
		return err
	}
	// The first episode also fails over to a replica and is scored; the
	// rest repeat it for more round samples and must reproduce its digest.
	start := time.Now()
	var eps []*fleetEpisode
	var regret, usd float64
	var took time.Duration
	for len(eps) < s.episodes || time.Since(start)+took <= o.budget {
		first := len(eps) == 0
		t0 := time.Now()
		ep, err := runFleetEpisode(fr, k, first, false, rep)
		if err != nil {
			return err
		}
		took = time.Since(t0)
		checkFleet(rep, ep, first)
		if first {
			if regret, usd, err = fleetQuality(ep.mgr.Jobs(), fr); err != nil {
				return err
			}
		} else {
			rep.check("digest", ep.digest == eps[0].digest, "episode digest %016x, first %016x", ep.digest, eps[0].digest)
		}
		ep.mgr = nil // keep the next episode's heap figures free of this fleet
		eps = append(eps, ep)
	}
	var rounds, wall, peaks []float64
	var speeds []string
	var tenantRounds int
	var loop time.Duration
	var alloc uint64
	for _, ep := range eps {
		for i, d := range ep.times.scaled() {
			rounds = append(rounds, ms(d))
			wall = append(wall, ms(ep.times.wall[i]))
			tenantRounds += ep.rounds[i].running
			loop += d
		}
		speeds = append(speeds, fmt.Sprintf("%.3g", ep.times.speed()))
		alloc += ep.allocB
		peaks = append(peaks, float64(ep.peakHeapB)/1e6)
	}
	first := eps[0]
	n := len(rounds)
	pct, tailV := tail(rounds, s.episodes*(fr.cfg.Slots-1))
	_, wallTail := tail(wall, s.episodes*(fr.cfg.Slots-1))
	rep.add("setup_s", median(durations(setups.scaled(), secs)), "s", fmt.Sprintf("fleet.New + admission round, median of %d", len(setups.wall)))
	rep.add("round_ms_p50", median(rounds), "ms", fmt.Sprintf("n=%d rounds, %d episodes", n, len(eps)))
	rep.add("round_ms_tail", tailV, "ms", fmt.Sprintf("p%g, n=%d", pct, n))
	rep.add("tenant_rounds_per_s", float64(tenantRounds)/loop.Seconds(), "1/s", "")
	rep.add("alloc_mb_per_round", float64(alloc)/1e6/float64(n), "MB", "")
	rep.add("peak_heap_mb", median(peaks), "MB", "median over episodes of the peak live heap")
	rep.add("failover_s", first.failover, "s", fmt.Sprintf("wall clock, not bounded: one ResumeReader replaying %d rounds", first.replayed))
	rep.add("regret_frac", regret, "1", "")
	rep.add("usd_per_gtuple", usd, "USD", "")
	rep.note("digest %016x", first.digest)
	rep.note("host speed per episode (reference = 1): %s", strings.Join(speeds, " "))
	rep.note("wall clock: round p50 %.4g ms, p%g %.4g ms, set-up p50 %.4g s",
		median(wall), pct, wallTail, median(durations(setups.wall, secs)))
	return nil
}

// runFleetTraced is the traced run of fleet-churn: an untraced primary
// (the reference for tracing overhead), then a traced primary with its
// checkpoint and resumed replica.
func runFleetTraced(s fleetShape, o options, rep *report) error {
	fr, err := s.plan(o.seed)
	if err != nil {
		return err
	}
	ref, err := runFleetEpisode(fr, nil, false, false, rep)
	if err != nil {
		return err
	}
	checkFleet(rep, ref, false)
	ep, err := runFleetEpisode(fr, nil, true, true, rep)
	if err != nil {
		return err
	}
	checkFleet(rep, ep, true)
	rep.check("digest", ep.digest == ref.digest, "traced digest %016x, untraced %016x", ep.digest, ref.digest)

	var step, perTenant, admit, submit, kill, untraced, traced, logN, logT []float64
	var other time.Duration
	pods := 0
	for _, r := range ref.rounds {
		untraced = append(untraced, ms(r.round))
	}
	for _, r := range ep.rounds {
		traced = append(traced, ms(r.round))
		other += r.round - r.submit - r.kill - r.step
		step = append(step, ms(r.step))
		if r.running > 0 {
			perTenant = append(perTenant, us(r.step)/float64(r.running))
			logN = append(logN, math.Log(float64(r.running)))
			logT = append(logT, math.Log(ms(r.step)))
		}
		if r.plannedAdmit {
			admit = append(admit, ms(r.step))
		}
		if r.submits > 0 {
			submit = append(submit, us(r.submit)/float64(r.submits))
		}
		if r.kills > 0 {
			kill = append(kill, us(r.kill)/float64(r.kills))
		}
		pods = max(pods, r.pods)
	}
	m := ep.mgr
	probes := 0
	for _, j := range m.Jobs() {
		if p := m.PlanFor(j.Name); p != nil {
			probes += len(p.Probes)
		}
	}
	ticks, rescales := 0, 0
	for _, j := range m.Jobs() {
		ticks += len(j.Rounds) * fr.cfg.SlotSeconds
		for i := 1; i < len(j.Rounds); i++ {
			if fmt.Sprint(j.Rounds[i].Tasks) != fmt.Sprint(j.Rounds[i-1].Tasks) {
				rescales++
			}
		}
	}
	addUnmeasured(rep, single, "not separable outside Manager.Step")
	rep.add("streamsim.ticks", float64(ticks), "count", "simulated tenant-seconds per episode")
	rep.add("flink.paused_s", 0, "s", "not visible through the fleet API")
	rep.add("core.rescales", float64(rescales), "count", "tenant configuration changes per episode")
	rep.add("round.traced_ms", mean(traced), "ms", "mean traced round")
	rep.add("round.other_ms", ms(other)/float64(len(ep.rounds)), "ms", "mean per round; submit + kill + step + other = traced round")
	rep.add("trace.overhead_frac", median(traced)/median(untraced)-1, "1", "traced vs untraced round p50")
	rep.add("fleet.step_ms", median(step), "ms", fmt.Sprintf("p50, n=%d", len(step)))
	rep.add("fleet.step_us_per_tenant", median(perTenant), "us", "p50 over rounds of step time / running tenants")
	rep.add("fleet.tenant_exponent", slope(logN, logT), "1", "d log step / d log running tenants")
	rep.add("fleet.admit_round_ms", median(admit), "ms", fmt.Sprintf("p50 of %d rounds admitting a planned tenant", len(admit)))
	rep.add("fleet.submit_us", median(submit), "us", "p50 per call")
	rep.add("fleet.kill_us", median(kill), "us", "p50 per call")
	rep.add("fleet.checkpoint_ms", ms(ep.ckpt), "ms", "BuildCheckpoint + WriteCheckpoint")
	rep.add("fleet.checkpoint_kb", float64(ep.ckptBytes)/1024, "KiB", "")
	rep.add("fleet.replay_rounds_per_s", float64(ep.replayed)/ep.failover, "1/s", "")
	rep.add("event.events", float64(len(m.Events())), "count", "")
	rep.add("event.journal_kb", float64(len(m.TraceBytes()))/1024, "KiB", "")
	rep.add("cluster.pods_max", float64(pods), "count", "")
	rep.add("planner.probes", float64(probes), "count", "")
	reg := m.Metrics()
	for _, c := range fleetCounters {
		rep.add("fleet."+c, float64(reg.CounterValue("fleet_"+c)), "count", "registry counter at run end")
	}
	return nil
}

// fleetCounters are the fleet registry series the traced run reports.
var fleetCounters = []string{"rounds", "jobs_admitted", "jobs_departed", "jobs_rejected", "jobs_planned", "arbiter_decisions"}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// slope is the least-squares slope of ys against xs.
func slope(xs, ys []float64) float64 {
	mx, my := mean(xs), mean(ys)
	var sxy, sxx float64
	for i := range xs {
		sxy += (xs[i] - mx) * (ys[i] - my)
		sxx += (xs[i] - mx) * (xs[i] - mx)
	}
	if sxx == 0 {
		return 0
	}
	return sxy / sxx
}
