package experiment

import (
	"errors"
	"fmt"
	"math"

	"dragster/internal/baseline"
	"dragster/internal/chaos"
	"dragster/internal/cluster"
	"dragster/internal/core"
	"dragster/internal/dag"
	"dragster/internal/flink"
	"dragster/internal/monitor"
	"dragster/internal/osp"
	"dragster/internal/stats"
	"dragster/internal/store"
	"dragster/internal/storm"
	"dragster/internal/streamsim"
	"dragster/internal/telemetry"
	"dragster/internal/ucb"
	"dragster/internal/workload"
)

// Scenario describes one experiment run.
type Scenario struct {
	Spec  *workload.Spec
	Rates workload.RateFunc
	// Slots is the number of decision slots to run (paper slot = 10 min).
	Slots int
	// SlotSeconds is the slot length in simulated seconds (default 600).
	SlotSeconds int
	// Seed drives all stochastic behaviour (default 1).
	Seed int64
	// NoiseSigma is the per-slot capacity cloud noise (default 0.05).
	NoiseSigma float64
	// UtilNoiseSigma perturbs CPU readings (default 0.02).
	UtilNoiseSigma float64
	// TaskBudget bounds Σ tasks for budget experiments; 0 = unbounded.
	TaskBudget int
	// PricePerCoreHour sets the cost meter (default 0.08 $/core·h).
	PricePerCoreHour float64
	// InitialTasks is the slot-0 configuration (default all 1).
	InitialTasks []int
	// ControllerGraph, when set, is handed to Dragster controllers instead
	// of the spec's exact graph — the Theorem 2 setting where the
	// controller works from predicted/learned throughput functions while
	// the simulator runs the ground truth.
	ControllerGraph *dag.Graph
	// MaxBufferSeconds caps per-edge backlog at this many seconds of the
	// peak offered rate (default 120; 0 keeps buffers unbounded).
	MaxBufferSeconds float64
	// VerticalScaling switches Dragster controllers to the 2-D
	// configuration space (tasks × per-pod CPU ∈ {500, 1000, 1500, 2000}m)
	// and makes the runner apply both dimensions via RescaleResources.
	// Requires a spec with ResourceAware capacity models (e.g.
	// workload.WordCount2D); non-Dragster policies ignore the CPU axis.
	VerticalScaling bool
	// StreamEngine selects the substrate: "flink" (default; savepoint
	// rescaling, ~30 s pause) or "storm" (rebalance, ~10 s pause,
	// homogeneous workers — §3.2 of the paper).
	StreamEngine string
	// ForecastAlpha enables Holt load forecasting in Dragster controllers
	// (see core.Config.ForecastAlpha; 0 disables).
	ForecastAlpha float64
	// GPObservationBudget caps each operator GP's retained observations
	// in Dragster controllers (see core.Config.GPObservationBudget; 0 =
	// unlimited). Long-horizon scenarios set this so per-slot cost and
	// memory stay flat; non-Dragster policies ignore it.
	GPObservationBudget int
	// FailNodeAtSlot, when positive, kills one worker node at the start
	// of that slot (chaos injection): its pods go Pending and the
	// dataflow loses parallelism until capacity returns.
	FailNodeAtSlot int
	// HealNodeAtSlot, when positive, adds a replacement node at the
	// start of that slot. Must be ≥ FailNodeAtSlot when both are set.
	HealNodeAtSlot int
	// Chaos, when set, replays the fault schedule through a seeded
	// chaos.Engine wired into the cluster, the Flink job (Storm has no
	// rescale hook surface), and the monitor. Mutually exclusive with the
	// legacy FailNodeAtSlot/HealNodeAtSlot pair, which setDefaults
	// converts into an equivalent Chaos spec.
	Chaos *chaos.Spec
	// ChaosSeed seeds the chaos engine's victim selection (default
	// Seed+104729 so chaos randomness never aliases workload noise).
	ChaosSeed int64
	// Counters receives fault/retry/skip telemetry from the chaos engine,
	// the rescale retrier, and the controller (default: a fresh registry).
	Counters *telemetry.Counters
	// Tracer, when set, records a sim-time span trace of the run: one
	// "round" span per decision slot with the optimizer, substrate, and
	// chaos events nested inside, all stamped with the cluster clock.
	// Nil (the default) leaves every emission point a no-op, and a traced
	// run is bit-identical to an untraced one apart from the trace itself.
	Tracer *telemetry.Tracer
}

func (sc *Scenario) setDefaults() error {
	if sc.Spec == nil || sc.Rates == nil {
		return errors.New("experiment: scenario needs a Spec and a RateFunc")
	}
	if sc.Slots < 1 {
		return errors.New("experiment: Slots must be ≥ 1")
	}
	if sc.SlotSeconds == 0 {
		sc.SlotSeconds = 600
	}
	if sc.SlotSeconds < 1 {
		return errors.New("experiment: SlotSeconds must be ≥ 1")
	}
	if sc.Seed == 0 {
		sc.Seed = 1
	}
	if sc.NoiseSigma == 0 {
		sc.NoiseSigma = 0.05
	}
	if sc.UtilNoiseSigma == 0 {
		sc.UtilNoiseSigma = 0.02
	}
	if sc.NoiseSigma < 0 || sc.UtilNoiseSigma < 0 {
		return errors.New("experiment: negative noise")
	}
	if sc.PricePerCoreHour == 0 {
		sc.PricePerCoreHour = 0.08
	}
	if sc.PricePerCoreHour < 0 {
		return errors.New("experiment: negative price")
	}
	m := sc.Spec.Graph.NumOperators()
	if sc.InitialTasks == nil {
		sc.InitialTasks = make([]int, m)
		for i := range sc.InitialTasks {
			sc.InitialTasks[i] = 1
		}
	}
	if len(sc.InitialTasks) != m {
		return fmt.Errorf("experiment: got %d initial tasks, want %d", len(sc.InitialTasks), m)
	}
	if sc.MaxBufferSeconds == 0 {
		sc.MaxBufferSeconds = 120
	}
	if sc.MaxBufferSeconds < 0 {
		return errors.New("experiment: negative MaxBufferSeconds")
	}
	if sc.StreamEngine == "" {
		sc.StreamEngine = "flink"
	}
	if sc.StreamEngine != "flink" && sc.StreamEngine != "storm" {
		return fmt.Errorf("experiment: unknown stream engine %q", sc.StreamEngine)
	}
	if sc.StreamEngine == "storm" && sc.VerticalScaling {
		return errors.New("experiment: storm workers are homogeneous; vertical scaling unavailable")
	}
	if sc.FailNodeAtSlot < 0 || sc.HealNodeAtSlot < 0 {
		return errors.New("experiment: negative chaos slots")
	}
	if sc.FailNodeAtSlot > 0 && sc.HealNodeAtSlot > 0 && sc.HealNodeAtSlot < sc.FailNodeAtSlot {
		return errors.New("experiment: HealNodeAtSlot before FailNodeAtSlot")
	}
	if sc.Chaos != nil && (sc.FailNodeAtSlot > 0 || sc.HealNodeAtSlot > 0) {
		return errors.New("experiment: set either Chaos or the legacy FailNodeAtSlot/HealNodeAtSlot pair, not both")
	}
	if sc.Chaos == nil && (sc.FailNodeAtSlot > 0 || sc.HealNodeAtSlot > 0) {
		// Legacy single-failure schedule: same semantics, one engine.
		legacy := chaos.NewSpec("legacy-node-chaos")
		if sc.FailNodeAtSlot > 0 {
			legacy.CrashLastNode(sc.FailNodeAtSlot)
		}
		if sc.HealNodeAtSlot > 0 {
			legacy.HealNode(sc.HealNodeAtSlot)
		}
		sc.Chaos = legacy
	}
	if sc.Chaos != nil {
		if err := sc.Chaos.Validate(); err != nil {
			return err
		}
	}
	if sc.ChaosSeed == 0 {
		sc.ChaosSeed = sc.Seed + 104729
	}
	if sc.Counters == nil {
		sc.Counters = telemetry.NewCounters()
	}
	return nil
}

// JobRuntime abstracts the stream-engine substrate the harness drives
// (flink.Job, storm.Topology).
type JobRuntime interface {
	RunSlot(seconds int, rateAt func(sec int) []float64) (*telemetry.SlotReport, error)
	RescaleResources(tasks []int, cpuMilli []int) error
	EffectiveParallelism() []int
	EffectiveCPUMilli() []int
	LastReport() *telemetry.SlotReport
}

// PolicyFactory builds an Autoscaler for a scenario.
type PolicyFactory func(sc *Scenario) (core.Autoscaler, error)

// DragsterSaddle builds the Dragster controller with the online saddle
// point level-1 algorithm.
func DragsterSaddle() PolicyFactory { return dragsterFactory(osp.SaddlePoint, ucb.Extended) }

// DragsterOGD builds the Dragster controller with online gradient descent.
func DragsterOGD() PolicyFactory { return dragsterFactory(osp.GradientDescent, ucb.Extended) }

// DragsterConventionalUCB is the ablation variant using conventional
// (maximum-seeking) GP-UCB instead of the extended target-tracking rule.
func DragsterConventionalUCB() PolicyFactory {
	return dragsterFactory(osp.SaddlePoint, ucb.Conventional)
}

// DragsterThompson is the ablation variant replacing the UCB bonus with
// Thompson sampling (one joint posterior draw per decision).
func DragsterThompson() PolicyFactory {
	return dragsterFactory(osp.SaddlePoint, ucb.Thompson)
}

func dragsterFactory(method osp.Method, acq ucb.Acquisition) PolicyFactory {
	return func(sc *Scenario) (core.Autoscaler, error) {
		// GP noise: capacity observations carry roughly NoiseSigma relative
		// error; anchor the variance to the capacity scale.
		capScale := sc.Spec.YMax / 3
		noiseSD := math.Max(sc.NoiseSigma, 0.02) * capScale
		g := sc.Spec.Graph
		if sc.ControllerGraph != nil {
			g = sc.ControllerGraph
		}
		cands, err := operatorCandidates(sc.Spec, sc.VerticalScaling)
		if err != nil {
			return nil, err
		}
		hyperopt := 0
		if sc.VerticalScaling {
			// The 2-D candidate set is 4× larger and the prior variance is
			// sized for the largest configurations, so let the GP re-fit
			// its kernel as data arrives — otherwise the exploration bonus
			// dominates the tracking term for most of the run.
			hyperopt = 6
		}
		var rng *stats.RNG
		if acq == ucb.Thompson {
			// Deterministic per-scenario stream, offset from the engine's.
			rng = stats.NewRNG(sc.Seed + 7919)
		}
		return core.New(core.Config{
			Graph:               g,
			Method:              method,
			TaskBudget:          sc.TaskBudget,
			YMax:                sc.Spec.YMax,
			NoiseVar:            noiseSD * noiseSD,
			Acquisition:         acq,
			Candidates:          cands,
			HyperoptEvery:       hyperopt,
			RNG:                 rng,
			ForecastAlpha:       sc.ForecastAlpha,
			GPObservationBudget: sc.GPObservationBudget,
			Counters:            sc.Counters,
		})
	}
}

// operatorCandidates gives every operator of spec the same candidate
// grid: the task counts 1..MaxTasks, or under vertical scaling the 2-D
// (tasks, cpuMilli) grid.
func operatorCandidates(spec *workload.Spec, vertical bool) ([][][]float64, error) {
	grid, err := store.TaskGrid(1, spec.MaxTasks)
	if vertical {
		grid, err = store.Grid2D(1, spec.MaxTasks, 500, 2000, 500)
	}
	if err != nil {
		return nil, err
	}
	out := make([][][]float64, spec.Graph.NumOperators())
	for i := range out {
		out[i] = grid
	}
	return out, nil
}

// DhalionPolicy builds the rule-based baseline.
func DhalionPolicy() PolicyFactory {
	return func(sc *Scenario) (core.Autoscaler, error) {
		return baseline.NewDhalion(sc.Spec.MaxTasks, baseline.WithBudget(sc.TaskBudget))
	}
}

// DaedalusPolicy builds the utilization-model baseline (the capacity
// experiment's self-adaptive comparator).
func DaedalusPolicy() PolicyFactory {
	return func(sc *Scenario) (core.Autoscaler, error) {
		return baseline.NewDaedalus(sc.Spec.MaxTasks, baseline.WithDaedalusBudget(sc.TaskBudget))
	}
}

// DS2Policy builds the proportional-controller baseline.
func DS2Policy() PolicyFactory {
	return func(sc *Scenario) (core.Autoscaler, error) {
		return baseline.NewDS2(sc.Spec.MaxTasks)
	}
}

// StaticPolicy keeps a fixed configuration (the paper's "without elastic
// scaling" reference behind the 5X–6X claim).
func StaticPolicy(tasks []int) PolicyFactory {
	return func(sc *Scenario) (core.Autoscaler, error) {
		if len(tasks) != sc.Spec.Graph.NumOperators() {
			return nil, fmt.Errorf("experiment: static policy got %d tasks, want %d", len(tasks), sc.Spec.Graph.NumOperators())
		}
		return staticPolicy{tasks: append([]int(nil), tasks...)}, nil
	}
}

type staticPolicy struct{ tasks []int }

func (s staticPolicy) Name() string { return "static" }
func (s staticPolicy) Decide(*monitor.Snapshot) ([]int, error) {
	return append([]int(nil), s.tasks...), nil
}

// SlotTrace records one slot of one run.
type SlotTrace struct {
	Slot               int
	Rates              []float64
	Tasks              []int // effective parallelism during the slot
	CPUMilli           []int // per-pod CPU during the slot
	TotalTasks         int
	SteadyThroughput   float64 // noise-free steady throughput of Tasks
	MeasuredThroughput float64 // what the sink actually saw (pauses, noise)
	Processed          float64 // tuples absorbed this slot
	Dropped            float64
	PausedSeconds      int
	CostCum            float64   // dollars accrued up to slot end
	AvgLatencySec      float64   // Little's-law end-to-end latency estimate
	TargetY            []float64 // Dragster level-1 targets (nil otherwise)
	Violations         []float64 // realized l_i per operator
}

// Result is a full run of one policy on one scenario.
type Result struct {
	Policy   string
	Workload string
	Slots    int
	SlotSecs int
	Trace    []SlotTrace
	// PhaseStarts are the slots where the offered load changes (incl. 0).
	PhaseStarts []int
	// OptimaByPhase maps each phase-start slot to the optimal steady state
	// under that phase's rates (and the scenario budget).
	OptimaByPhase map[int]*Optimum
	// SkippedRounds counts decision rounds skipped for want of a fresh
	// metrics sample (metrics blackouts / stale windows).
	SkippedRounds int
	// Counters is the run's shared fault/retry telemetry registry.
	Counters *telemetry.Counters
}

// Runner executes a scenario one decision slot at a time. Use it when a
// caller (e.g. the dragsterd daemon) needs to observe or pace individual
// slots; Run wraps it for batch execution.
type Runner struct {
	sc      Scenario
	policy  core.Autoscaler
	job     JobRuntime
	k8s     *cluster.Cluster
	mon     *monitor.Monitor
	chaos   *chaos.Engine
	retrier *core.RescaleRetrier
	res     *Result
	slot    int
	skipped int

	// Per-slot working storage, grown once and reused by Step so the
	// steady-state/violation bookkeeping allocates nothing per round.
	capsBuf []float64
	frep    dag.FlowReport
}

// NewRunner validates the scenario, builds the full stack (cluster, Flink
// session, dataflow engine, monitor, policy) and precomputes the per-phase
// optima.
func NewRunner(sc Scenario, factory PolicyFactory) (*Runner, error) {
	if factory == nil {
		return nil, errors.New("experiment: nil policy factory")
	}
	if err := sc.setDefaults(); err != nil {
		return nil, err
	}
	spec := sc.Spec
	g := spec.Graph
	m := g.NumOperators()

	policy, err := factory(&sc)
	if err != nil {
		return nil, err
	}

	// Size the cluster generously; budgets are policy decisions, matching
	// the paper's dollar-budget formulation rather than a hardware wall.
	nNodes := (m*spec.MaxTasks+1)/4 + 1
	k8s := cluster.New(cluster.WithPricePerCoreHour(sc.PricePerCoreHour))
	if err := k8s.AddNodes("node", nNodes, cluster.ResourceSpec{CPUMilli: 4000, MemoryMB: 8192}); err != nil {
		return nil, err
	}
	// Spans are stamped with the simulation clock, never wall time, so a
	// fixed seed reproduces the trace byte for byte.
	sc.Tracer.SetClock(k8s.Clock)
	k8s.SetTracer(sc.Tracer)
	rng := stats.NewRNG(sc.Seed)
	peak := workload.PeakRate(sc.Rates, sc.Slots)
	var maxBuf float64
	if sc.MaxBufferSeconds > 0 {
		maxBuf = sc.MaxBufferSeconds * math.Max(peak, 1)
	}
	engine, err := streamsim.New(streamsim.Config{
		Graph:            g,
		Models:           spec.Models,
		NoiseSigma:       sc.NoiseSigma,
		UtilNoiseSigma:   sc.UtilNoiseSigma,
		MaxBufferPerEdge: maxBuf,
		RNG:              rng,
	})
	if err != nil {
		return nil, err
	}
	var job JobRuntime
	switch sc.StreamEngine {
	case "storm":
		sCluster, err := storm.NewCluster(k8s, storm.DefaultOptions())
		if err != nil {
			return nil, err
		}
		job, err = sCluster.SubmitTopology(spec.Name, g, engine, sc.InitialTasks)
		if err != nil {
			return nil, err
		}
	default:
		session, err := flink.NewSession(k8s, flink.DefaultOptions())
		if err != nil {
			return nil, err
		}
		job, err = session.SubmitJob(spec.Name, g, engine, sc.InitialTasks)
		if err != nil {
			return nil, err
		}
	}
	mon, err := monitor.New(monitor.DirectSource{Job: job}, monitor.Config{})
	if err != nil {
		return nil, err
	}
	mon.SetTracer(sc.Tracer)
	// Rescale/run-slot spans exist on the Flink substrate only; Storm
	// topologies are traced at the cluster and monitor layers.
	if fj, ok := job.(*flink.Job); ok {
		fj.SetTracer(sc.Tracer)
	}
	if dc, ok := policy.(*core.Controller); ok {
		dc.SetTracer(sc.Tracer)
	}
	var chaosEng *chaos.Engine
	if sc.Chaos != nil {
		chaosEng, err = chaos.NewEngine(sc.Chaos, sc.ChaosSeed, sc.Counters)
		if err != nil {
			return nil, err
		}
		chaosEng.SetTracer(sc.Tracer)
		// The Flink rescale hooks only exist on flink.Job; Storm topologies
		// get cluster- and monitor-level faults only.
		fj, _ := job.(*flink.Job)
		if err := chaosEng.Install(k8s, fj, mon); err != nil {
			return nil, err
		}
	}
	retrier, err := core.NewRescaleRetrier(core.RetryConfig{
		Retryable: func(err error) bool { return errors.Is(err, chaos.ErrInjected) },
		Counters:  sc.Counters,
	})
	if err != nil {
		return nil, err
	}

	res := &Result{
		Policy:        policy.Name(),
		Workload:      spec.Name,
		Slots:         sc.Slots,
		SlotSecs:      sc.SlotSeconds,
		PhaseStarts:   workload.PhaseBoundaries(sc.Rates, sc.Slots),
		OptimaByPhase: make(map[int]*Optimum),
	}
	for _, ps := range res.PhaseStarts {
		opt, err := OptimalConfig(spec, sc.Rates(ps, 0), sc.TaskBudget)
		if err != nil {
			return nil, err
		}
		res.OptimaByPhase[ps] = opt
	}
	res.Counters = sc.Counters
	return &Runner{sc: sc, policy: policy, job: job, k8s: k8s, mon: mon,
		chaos: chaosEng, retrier: retrier, res: res}, nil
}

// applyChaos fires the scenario's fault schedule at the start of the
// given slot (a no-op without a chaos spec).
func (r *Runner) applyChaos(slot int) {
	if r.chaos != nil {
		r.chaos.BeginSlot(slot)
	}
}

// ChaosTrace returns the deterministic fault trace so far (nil without a
// chaos spec).
func (r *Runner) ChaosTrace() []chaos.TraceEntry {
	if r.chaos == nil {
		return nil
	}
	return r.chaos.Trace()
}

// FaultCounters returns the scenario's shared telemetry registry.
func (r *Runner) FaultCounters() *telemetry.Counters { return r.sc.Counters }

// SkippedRounds returns how many decision rounds were skipped because the
// metrics pipeline had no fresh sample.
func (r *Runner) SkippedRounds() int { return r.skipped }

// PolicyName returns the running policy's name.
func (r *Runner) PolicyName() string { return r.policy.Name() }

// Job exposes the underlying stream-engine runtime (status endpoints,
// diagnostics).
func (r *Runner) Job() JobRuntime { return r.job }

// Result returns the result accumulated so far (shared, not a copy).
func (r *Runner) Result() *Result { return r.res }

// Done reports whether every slot has run.
func (r *Runner) Done() bool { return r.slot >= r.sc.Slots }

// Step runs one decision slot: simulate, observe, decide, rescale. It
// returns the slot's trace entry, which is also appended to Result().
func (r *Runner) Step() (*SlotTrace, error) {
	if r.Done() {
		return nil, errors.New("experiment: runner already finished")
	}
	sc, spec, g := r.sc, r.sc.Spec, r.sc.Spec.Graph
	m := g.NumOperators()
	slot := r.slot

	sc.Tracer.SetSlot(slot)
	round := sc.Tracer.Begin("experiment", "round", telemetry.Int("slot", slot))
	defer round.End()
	r.applyChaos(slot)
	rates := sc.Rates(slot, 0)
	rep, err := r.job.RunSlot(sc.SlotSeconds, func(sec int) []float64 {
		return sc.Rates(slot, sec)
	})
	if err != nil {
		return nil, err
	}
	tasksNow := r.job.EffectiveParallelism()
	cpuNow := r.job.EffectiveCPUMilli()
	// Ground-truth capacities at the current allocation (CPU-aware when
	// the models support it), for steady-state and violation accounting.
	// One EvaluateInto into reused runner storage covers both the steady
	// throughput and the per-operator demand.
	if cap(r.capsBuf) < m {
		r.capsBuf = make([]float64, m)
	}
	caps := r.capsBuf[:m]
	for i, n := range tasksNow {
		if ra, ok := spec.Models[i].(streamsim.ResourceAware); ok && cpuNow[i] > 0 {
			caps[i] = ra.CapacityWithCPU(n, cpuNow[i])
		} else {
			caps[i] = spec.Models[i].Capacity(n)
		}
	}
	if err := g.EvaluateInto(&r.frep, rates, caps); err != nil {
		return nil, err
	}
	steady := r.frep.Throughput
	// Violations are retained in the slot trace, so they stay per-slot.
	viol := make([]float64, m)
	for i := range viol {
		viol[i] = r.frep.Demand[i] - caps[i]
	}

	tr := SlotTrace{
		Slot:               slot,
		Rates:              append([]float64(nil), rates...),
		Tasks:              tasksNow,
		CPUMilli:           cpuNow,
		TotalTasks:         sum(tasksNow),
		SteadyThroughput:   steady,
		MeasuredThroughput: rep.Throughput,
		Processed:          rep.ProcessedTuples,
		Dropped:            rep.DroppedTuples,
		PausedSeconds:      rep.PausedSeconds,
		CostCum:            rep.CostSoFar,
		AvgLatencySec:      rep.AvgLatencySec,
		Violations:         viol,
	}

	r.annotateRound(round, &tr)
	snap, err := r.mon.Collect()
	if err != nil {
		if errors.Is(err, monitor.ErrNoSample) {
			// Metrics blackout or stale repeat: no observation this slot.
			// Skip the optimizer round and keep the current configuration
			// rather than feeding the learner a fabricated sample.
			r.skipped++
			r.res.SkippedRounds = r.skipped
			r.sc.Counters.Inc("runner_skipped_rounds")
			round.Annotate(telemetry.Str("outcome", "skipped"))
			sc.Tracer.Metrics().Inc("experiment_rounds_skipped")
			r.res.Trace = append(r.res.Trace, tr)
			r.slot++
			return &r.res.Trace[len(r.res.Trace)-1], nil
		}
		return nil, err
	}
	var desired []int
	var desiredCPU []int
	if dc, ok := r.policy.(*core.Controller); ok {
		var diag *core.LastTargets
		if r.sc.VerticalScaling {
			desired, desiredCPU, diag, err = dc.DecideResources(snap)
		} else {
			desired, diag, err = dc.DecideDetailed(snap)
		}
		if err != nil {
			return nil, err
		}
		tr.TargetY = diag.Y
	} else {
		desired, err = r.policy.Decide(snap)
		if err != nil {
			return nil, err
		}
	}
	r.res.Trace = append(r.res.Trace, tr)
	r.slot++
	if !r.Done() {
		// Bounded-retry apply: injected savepoint failures and rescale
		// timeouts are absorbed and retried with slot-based backoff; any
		// non-injected error is fatal as before.
		if err := r.retrier.Apply(r.job, desired, desiredCPU, slot); err != nil {
			return nil, err
		}
	}
	sc.Tracer.Metrics().Inc("experiment_rounds")
	return &r.res.Trace[len(r.res.Trace)-1], nil
}

// annotateRound attaches the slot's outcome metrics — including the
// per-round regret against the current phase's precomputed optimum — to
// the round span.
func (r *Runner) annotateRound(round *telemetry.Span, tr *SlotTrace) {
	var opt float64
	for _, ps := range r.res.PhaseStarts {
		if ps > tr.Slot {
			break
		}
		if o := r.res.OptimaByPhase[ps]; o != nil {
			opt = o.Throughput
		}
	}
	round.Annotate(
		telemetry.Str("tasks", fmt.Sprint(tr.Tasks)),
		telemetry.Float("steady", tr.SteadyThroughput),
		telemetry.Float("measured", tr.MeasuredThroughput),
		telemetry.Float("optimal", opt),
		telemetry.Float("regret", opt-tr.SteadyThroughput),
		telemetry.Float("cost", tr.CostCum))
}

// Run executes the scenario under the policy built by factory.
func Run(sc Scenario, factory PolicyFactory) (*Result, error) {
	r, err := NewRunner(sc, factory)
	if err != nil {
		return nil, err
	}
	for !r.Done() {
		if _, err := r.Step(); err != nil {
			return nil, err
		}
	}
	return r.Result(), nil
}
