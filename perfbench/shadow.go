package main

import (
	"errors"
	"fmt"
	"math"
	"time"

	"dragster/internal/core"
	"dragster/internal/dag"
	"dragster/internal/experiment"
	"dragster/internal/gp"
	"dragster/internal/monitor"
	"dragster/internal/osp"
	"dragster/internal/store"
	"dragster/internal/ucb"
)

// shadow replays the controller's decide layers on instances of its
// public sub-layers: an osp.Optimizer and one ucb.Searcher per operator,
// configured as core.New configures the controller's own. Fed each
// round's snapshot, it must reach the controller's targets and
// configurations bit for bit; only then are its per-call timings the
// timings of the controller's work.
//
// The constants below are core.Config's defaults as experiment's
// Dragster factory leaves them.
type shadow struct {
	g         *dag.Graph
	cands     [][][]float64
	budget    int
	vertical  bool
	level1    *osp.Optimizer
	searchers []*ucb.Searcher
	lastTasks []int
	lastCPU   []int

	ospStep, gradient, observe, sel []time.Duration
	gradAllocs                      []float64
}

const (
	bottleneckTol    = 0.1
	minObserveUtil   = 0.15
	explorationScale = 0.1
	verticalRefit    = 6
)

func newShadow(sc experiment.Scenario) (*shadow, error) {
	spec := sc.Spec
	g := spec.Graph
	m := g.NumOperators()
	cands := make([][][]float64, m)
	refit := 0
	grid, err := store.TaskGrid(1, spec.MaxTasks)
	if sc.VerticalScaling {
		grid, err = store.Grid2D(1, spec.MaxTasks, 500, 2000, 500)
		refit = verticalRefit
	}
	if err != nil {
		return nil, err
	}
	for i := range cands {
		cands[i] = grid
	}
	level1, err := osp.New(g, osp.Config{Method: osp.SaddlePoint, YMax: spec.YMax})
	if err != nil {
		return nil, err
	}
	capScale := spec.YMax / 3
	noiseSD := math.Max(sc.NoiseSigma, 0.02) * capScale
	s := &shadow{
		g: g, cands: cands, budget: sc.TaskBudget, vertical: sc.VerticalScaling,
		level1:    level1,
		searchers: make([]*ucb.Searcher, m),
		lastTasks: make([]int, m),
		lastCPU:   make([]int, m),
	}
	for i := range s.searchers {
		s.searchers[i], err = ucb.NewSearcher(ucb.Config{
			NoiseVar:          noiseSD * noiseSD,
			Candidates:        cands[i],
			Acquisition:       ucb.Extended,
			Kernel:            capacityKernel(cands[i], spec.YMax),
			ExplorationScale:  explorationScale,
			RefitEvery:        refit,
			ObservationBudget: sc.GPObservationBudget,
		})
		if err != nil {
			return nil, err
		}
		s.lastTasks[i] = int(math.Round(cands[i][0][0]))
	}
	return s, nil
}

// capacityKernel is the controller's kernel: length scales of a quarter
// of each candidate axis, variance (capScale/3)².
func capacityKernel(cands [][]float64, capScale float64) gp.Kernel {
	dim := len(cands[0])
	scales := make([]float64, dim)
	for d := range scales {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, c := range cands {
			lo, hi = math.Min(lo, c[d]), math.Max(hi, c[d])
		}
		scales[d] = math.Max(0.25*(hi-lo), 0.5)
	}
	variance := (capScale / 3) * (capScale / 3)
	if dim == 1 {
		k, err := gp.NewSquaredExponential(scales[0], variance)
		if err != nil {
			panic(err) // positive by construction
		}
		return k
	}
	k, err := gp.NewARDSquaredExponential(scales, variance)
	if err != nil {
		panic(err) // positive by construction
	}
	return k
}

// round replays one decide pass on snap and compares the outcome with
// what the controller returned for it. A mismatch is an error.
func (s *shadow) round(snap *monitor.Snapshot, diag *core.LastTargets, tasks, cpu []int) error {
	m := s.g.NumOperators()
	for i, om := range snap.Operators {
		finite := !math.IsNaN(om.CapacityObs) && !math.IsInf(om.CapacityObs, 0) &&
			!math.IsNaN(om.Util) && !math.IsInf(om.Util, 0)
		if finite && om.Util >= minObserveUtil && om.CapacityObs > 0 {
			x := s.configFor(i, om.Tasks, om.CPUMilli)
			t := time.Now()
			err := s.searchers[i].Observe(x, om.CapacityObs)
			s.observe = append(s.observe, time.Since(t))
			if err != nil {
				return err
			}
		}
		s.lastTasks[i], s.lastCPU[i] = om.Tasks, om.CPUMilli
	}

	capObs := make([]float64, m)
	for i, om := range snap.Operators {
		if !math.IsNaN(om.CapacityObs) && !math.IsInf(om.CapacityObs, 0) {
			capObs[i] = math.Max(om.CapacityObs, 0)
		}
	}
	flow, err := s.g.Evaluate(snap.SourceRates, capObs)
	if err != nil {
		return err
	}
	viol := make([]float64, m)
	for i := range viol {
		viol[i] = flow.Demand[i] - capObs[i]
	}
	t := time.Now()
	if err := s.level1.ObserveViolations(viol); err != nil {
		return err
	}
	y, err := s.level1.Step(snap.SourceRates)
	s.ospStep = append(s.ospStep, time.Since(t))
	if err != nil {
		return err
	}
	if !sameBits(y, diag.Y) {
		return fmt.Errorf("osp targets %v, controller %v", y, diag.Y)
	}

	duals := s.level1.Duals()
	a0 := mallocsNow()
	t = time.Now()
	_, _, err = s.g.LagrangianGradient(snap.SourceRates, y, duals)
	s.gradient = append(s.gradient, time.Since(t))
	s.gradAllocs = append(s.gradAllocs, float64(mallocsNow()-a0))
	if err != nil {
		return err
	}

	est := make([]float64, m)
	for i := range est {
		mu, _, err := s.searchers[i].Regressor().Posterior(s.configFor(i, s.lastTasks[i], s.lastCPU[i]))
		if err == nil {
			est[i] = mu
		} else {
			est[i] = capObs[i]
		}
	}
	bottlenecks, err := osp.Bottlenecks(y, est, bottleneckTol)
	if err != nil {
		return err
	}
	if fmt.Sprint(bottlenecks) != fmt.Sprint(diag.Bottlenecks) {
		return fmt.Errorf("bottlenecks %v, controller %v", bottlenecks, diag.Bottlenecks)
	}
	chosen := make([][]float64, m)
	for i := range chosen {
		chosen[i] = s.configFor(i, s.lastTasks[i], s.lastCPU[i])
	}
	for _, i := range bottlenecks {
		t := time.Now()
		x, _, _, err := s.searchers[i].Select(y[i])
		s.sel = append(s.sel, time.Since(t))
		if errors.Is(err, ucb.ErrNoData) {
			continue
		}
		if err != nil {
			return err
		}
		chosen[i] = x
	}
	if s.budget > 0 {
		if chosen, err = s.project(chosen, y, snap.SourceRates); err != nil {
			return err
		}
	}
	for i, x := range chosen {
		wantCPU := 0
		if s.vertical && len(x) > 1 {
			wantCPU = int(math.Round(x[1]))
		}
		gotCPU := 0
		if cpu != nil {
			gotCPU = cpu[i]
		}
		if int(math.Round(x[0])) != tasks[i] || wantCPU != gotCPU {
			return fmt.Errorf("operator %d: shadow chose %v, controller tasks %d cpu %d", i, x, tasks[i], gotCPU)
		}
	}
	return nil
}

// project is the controller's budget projection: trim to the budget by
// least target shortfall, hill-climb single-task moves on the optimistic
// capacities, then map task counts back onto candidates.
func (s *shadow) project(chosen [][]float64, y, rates []float64) ([][]float64, error) {
	desired := make([]int, len(chosen))
	for i, v := range chosen {
		desired[i] = int(math.Round(v[0]))
	}
	desired, err := ucb.ProjectTasks(desired, s.budget, 1, func(op, from int) float64 {
		return s.taskLoss(op, from, y[op])
	})
	if err != nil {
		return nil, err
	}
	desired = s.rebalance(desired, rates)
	out := make([][]float64, len(chosen))
	for i, n := range desired {
		out[i] = s.nearestWithTasks(i, n, chosen[i])
	}
	return out, nil
}

func (s *shadow) taskLoss(op, from int, target float64) float64 {
	reg := s.searchers[op].Regressor()
	muFrom, _, errA := reg.Posterior(s.configFor(op, from, s.lastCPU[op]))
	muTo, _, errB := reg.Posterior(s.configFor(op, from-1, s.lastCPU[op]))
	if errA != nil || errB != nil {
		return 1
	}
	shortfall := func(mu float64) float64 { return math.Max(0, target-mu) }
	return (shortfall(muTo)-shortfall(muFrom))*1000 + math.Max(0, muFrom-muTo)
}

func (s *shadow) rebalance(tasks []int, rates []float64) []int {
	m := len(tasks)
	predicted := func(ts []int) (float64, bool) {
		caps := make([]float64, m)
		for i, n := range ts {
			opt, err := s.searchers[i].OptimisticAt(s.configFor(i, n, s.lastCPU[i]))
			if err != nil {
				return 0, false
			}
			caps[i] = math.Max(opt, 0)
		}
		th, err := s.g.Throughput(rates, caps)
		return th, err == nil
	}
	cur, ok := predicted(tasks)
	if !ok {
		return tasks
	}
	out := append([]int(nil), tasks...)
	for improved := true; improved; {
		improved = false
		for from := 0; from < m; from++ {
			for to := 0; to < m; to++ {
				if from == to || out[from] <= 1 || out[to] >= s.maxTasksOf(to) {
					continue
				}
				out[from]--
				out[to]++
				if th, ok := predicted(out); ok && th > cur*(1+1e-6) {
					cur = th
					improved = true
				} else {
					out[from]++
					out[to]--
				}
			}
		}
	}
	return out
}

func (s *shadow) maxTasksOf(op int) int {
	maxN := 1
	for _, c := range s.cands[op] {
		maxN = max(maxN, int(math.Round(c[0])))
	}
	return maxN
}

func (s *shadow) configFor(op, tasks, cpuMilli int) []float64 {
	cands := s.cands[op]
	dist := func(c []float64) float64 {
		d := math.Abs(c[0] - float64(tasks))
		if len(c) > 1 && cpuMilli > 0 {
			d += math.Abs(c[1]-float64(cpuMilli)) / 500
		}
		return d
	}
	best, bestD := cands[0], dist(cands[0])
	for _, c := range cands[1:] {
		if d := dist(c); d < bestD {
			best, bestD = c, d
		}
	}
	out := append([]float64(nil), best...)
	out[0] = float64(tasks)
	if len(out) > 1 && cpuMilli > 0 {
		out[1] = float64(cpuMilli)
	}
	return out
}

func (s *shadow) nearestWithTasks(op, tasks int, like []float64) []float64 {
	best, bestScore := s.cands[op][0], math.Inf(1)
	for _, c := range s.cands[op] {
		score := 1000 * math.Abs(c[0]-float64(tasks))
		for d := 1; d < len(c) && d < len(like); d++ {
			score += math.Abs(c[d] - like[d])
		}
		if score < bestScore {
			best, bestScore = c, score
		}
	}
	return append([]float64(nil), best...)
}

// sameBits reports bit-for-bit equality of two float vectors.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
