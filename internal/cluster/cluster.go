// Package cluster simulates the Kubernetes substrate Dragster runs on: a
// set of nodes with allocatable CPU/memory, deployments of pods, a best-fit
// scheduler, a metrics server, and a cost meter. It models exactly the
// surface the paper's implementation touches — replica scaling (HPA),
// resource resizing (VPA), pod CPU metrics, and dollar cost — without
// pretending to be a full orchestrator.
package cluster

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"dragster/internal/telemetry"
)

// ResourceSpec is a pod resource request.
type ResourceSpec struct {
	CPUMilli int // millicores
	MemoryMB int
}

// Validate reports whether the spec is usable.
func (r ResourceSpec) Validate() error {
	if r.CPUMilli <= 0 || r.MemoryMB <= 0 {
		return fmt.Errorf("cluster: resource spec must be positive, got %+v", r)
	}
	return nil
}

// PodPhase is a pod lifecycle phase.
type PodPhase int

// Pod phases: Pending pods are awaiting scheduling; Running pods consume
// node resources and accrue cost; Terminated pods are kept briefly for
// observability and then garbage-collected.
const (
	PodPending PodPhase = iota
	PodRunning
	PodTerminated
)

// String implements fmt.Stringer.
func (p PodPhase) String() string {
	switch p {
	case PodPending:
		return "Pending"
	case PodRunning:
		return "Running"
	case PodTerminated:
		return "Terminated"
	default:
		return fmt.Sprintf("PodPhase(%d)", int(p))
	}
}

// Pod is one scheduled unit. In the Flink layer a Running pod provides one
// TaskManager slot.
type Pod struct {
	Name       string
	Deployment string
	Spec       ResourceSpec
	Phase      PodPhase
	NodeName   string // empty while pending
	CreatedAt  int64  // cluster clock, seconds
	StartedAt  int64  // 0 until running

	cpuUsageMilli int // reported by the workload, read by the metrics server
}

// Deployment manages a replica set of identical pods.
type Deployment struct {
	Name     string
	Spec     ResourceSpec
	Replicas int // desired

	pods []*Pod // live pods, in creation order
}

// node is a worker machine.
type node struct {
	name        string
	allocatable ResourceSpec
	usedCPU     int
	usedMem     int
}

// Injector is the cluster-side fault-injection hook. A chaos engine
// installs one via SetInjector; with none installed every hook site is a
// no-op, so fault-free runs execute the exact pre-hook code path.
//
// Implementations must be deterministic functions of their own seeded
// state and the observable cluster state: the hooks are called at fixed
// points of the simulation, so a deterministic injector yields a
// deterministic fault trace.
type Injector interface {
	// HoldScheduling reports whether the scheduler must skip placing
	// pending pods at the given cluster clock (a scheduler delay spike).
	// Pods stay Pending until a pass where this returns false.
	HoldScheduling(clock int64) bool
	// AfterTick runs after each Tick advance (including Tick(0)) so the
	// injector can mutate the cluster — kill or heal nodes, OOM-kill pods
	// — on its own schedule. It must not call c.Tick (re-entrance).
	AfterTick(c *Cluster, clock int64)
}

// Cluster is the simulated control plane. It is not safe for concurrent
// use; the experiment loop drives it from one goroutine, mirroring a
// single-threaded controller.
type Cluster struct {
	nodes       map[string]*node
	nodeOrder   []string
	deployments map[string]*Deployment
	pods        map[string]*Pod // live pods by name

	// order is the cluster-wide walk order: every live pod in creation
	// order, plus the terminated ones not yet compacted away. dead counts
	// the latter; terminatePod compacts once they outnumber the live
	// pods, so len(order) ≤ 2·len(pods) and walks stay O(live pods).
	order []*Pod
	dead  int
	// runningCPU is the CPU reserved by Running pods, kept in step at
	// placement, termination and eviction.
	runningCPU int

	clock       int64 // seconds
	podSeq      int
	pricePerCPU float64 // dollars per core·hour
	cost        float64 // accrued dollars
	injector    Injector
	tracer      *telemetry.Tracer

	// metricsBuf backs PodMetrics and podsBuf backs PodsView: the monitor
	// scrapes every pod once per slot, so the response rows are reused
	// instead of allocated per call.
	metricsBuf []PodMetric
	podsBuf    []*Pod
}

// SetInjector installs (or, with nil, removes) the fault-injection hook.
func (c *Cluster) SetInjector(in Injector) { c.injector = in }

// SetTracer installs (or, with nil, removes) the observability tracer.
// The cluster emits one "place" event per pod placement — the scheduler
// decisions that determine effective parallelism. All tracer methods are
// no-ops on a nil tracer, so untraced runs execute the pre-hook path.
func (c *Cluster) SetTracer(tr *telemetry.Tracer) { c.tracer = tr }

// Option configures a Cluster.
type Option func(*Cluster)

// WithPricePerCoreHour sets the dollar price of one CPU core for one hour
// (default 0.08, roughly a small cloud VM core).
func WithPricePerCoreHour(p float64) Option {
	return func(c *Cluster) { c.pricePerCPU = p }
}

// New returns an empty cluster.
func New(opts ...Option) *Cluster {
	c := &Cluster{
		nodes:       make(map[string]*node),
		deployments: make(map[string]*Deployment),
		pods:        make(map[string]*Pod),
		pricePerCPU: 0.08,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// AddNode registers a worker node.
func (c *Cluster) AddNode(name string, allocatable ResourceSpec) error {
	if err := allocatable.Validate(); err != nil {
		return err
	}
	if _, ok := c.nodes[name]; ok {
		return fmt.Errorf("cluster: node %q already exists", name)
	}
	c.nodes[name] = &node{name: name, allocatable: allocatable}
	c.nodeOrder = append(c.nodeOrder, name)
	return nil
}

// AddNodes registers count identical nodes named prefix-0..count-1.
func (c *Cluster) AddNodes(prefix string, count int, allocatable ResourceSpec) error {
	for i := 0; i < count; i++ {
		if err := c.AddNode(fmt.Sprintf("%s-%d", prefix, i), allocatable); err != nil {
			return err
		}
	}
	return nil
}

// RemoveNode simulates a node failure: the node leaves the cluster and
// every pod running on it is recreated as Pending, to be rescheduled onto
// the remaining nodes at the next scheduling pass (possibly staying
// Pending if capacity is short — exactly the degraded-parallelism signal
// the autoscalers must cope with).
func (c *Cluster) RemoveNode(name string) error {
	if _, ok := c.nodes[name]; !ok {
		return fmt.Errorf("cluster: unknown node %q", name)
	}
	delete(c.nodes, name)
	for i, nn := range c.nodeOrder {
		if nn == name {
			c.nodeOrder = append(c.nodeOrder[:i], c.nodeOrder[i+1:]...)
			break
		}
	}
	// Evict: mark the victims pending and clear their placement. The
	// deployment's desired count is unchanged, so reconcile/schedule will
	// try to place them elsewhere.
	for _, p := range c.order {
		if p.Phase != PodRunning || p.NodeName != name {
			continue
		}
		c.runningCPU -= p.Spec.CPUMilli
		p.Phase = PodPending
		p.NodeName = ""
		p.StartedAt = 0
		p.cpuUsageMilli = 0
	}
	c.schedule()
	return nil
}

// KillPod simulates an OOM-kill (or any abrupt single-pod death): the pod
// is terminated and its deployment reconciled, so a fresh replacement pod
// is created Pending and scheduled when capacity (and the scheduler)
// allow. Returns ErrUnknownPod for missing pods.
func (c *Cluster) KillPod(name string) error {
	p, ok := c.pods[name]
	if !ok {
		return ErrUnknownPod
	}
	dep := p.Deployment
	c.terminatePod(p)
	if _, ok := c.deployments[dep]; ok {
		c.reconcile(dep)
	}
	return nil
}

// Nodes returns the live node names in registration order.
func (c *Cluster) Nodes() []string {
	return append([]string(nil), c.nodeOrder...)
}

// NodeAllocatable returns a node's allocatable resources.
func (c *Cluster) NodeAllocatable(name string) (ResourceSpec, bool) {
	n, ok := c.nodes[name]
	if !ok {
		return ResourceSpec{}, false
	}
	return n.allocatable, true
}

// CreateDeployment declares a deployment with the given pod template and
// desired replica count, then reconciles.
func (c *Cluster) CreateDeployment(name string, spec ResourceSpec, replicas int) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	if replicas < 0 {
		return fmt.Errorf("cluster: negative replicas %d", replicas)
	}
	if _, ok := c.deployments[name]; ok {
		return fmt.Errorf("cluster: deployment %q already exists", name)
	}
	c.deployments[name] = &Deployment{Name: name, Spec: spec, Replicas: replicas}
	c.reconcile(name)
	return nil
}

// Scale sets the desired replica count of a deployment (the HPA surface)
// and reconciles immediately.
func (c *Cluster) Scale(deployment string, replicas int) error {
	d, ok := c.deployments[deployment]
	if !ok {
		return fmt.Errorf("cluster: unknown deployment %q", deployment)
	}
	if replicas < 0 {
		return fmt.Errorf("cluster: negative replicas %d", replicas)
	}
	d.Replicas = replicas
	c.reconcile(deployment)
	return nil
}

// Resize changes the pod template of a deployment (the VPA surface) and
// performs a rolling replacement of all pods.
func (c *Cluster) Resize(deployment string, spec ResourceSpec) error {
	d, ok := c.deployments[deployment]
	if !ok {
		return fmt.Errorf("cluster: unknown deployment %q", deployment)
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	d.Spec = spec
	// Rolling replacement: terminate existing pods, let reconcile recreate.
	c.terminateAll(d)
	c.reconcile(deployment)
	return nil
}

// DeleteDeployment removes the deployment and terminates its pods.
func (c *Cluster) DeleteDeployment(deployment string) error {
	d, ok := c.deployments[deployment]
	if !ok {
		return fmt.Errorf("cluster: unknown deployment %q", deployment)
	}
	c.terminateAll(d)
	delete(c.deployments, deployment)
	return nil
}

// reconcile drives the pod set of a deployment towards its desired state
// and schedules pending pods.
func (c *Cluster) reconcile(deployment string) {
	d := c.deployments[deployment]
	for len(d.pods) > d.Replicas {
		// Scale down newest-first so long-lived pods keep their slots.
		c.terminatePod(d.pods[len(d.pods)-1])
	}
	for len(d.pods) < d.Replicas {
		c.podSeq++
		p := &Pod{
			Name:       fmt.Sprintf("%s-%d", deployment, c.podSeq),
			Deployment: deployment,
			Spec:       d.Spec,
			Phase:      PodPending,
			CreatedAt:  c.clock,
		}
		c.pods[p.Name] = p
		c.order = append(c.order, p)
		d.pods = append(d.pods, p)
	}
	c.schedule()
}

// schedule assigns pending pods to nodes with a best-fit policy (the node
// whose remaining CPU after placement is smallest), mirroring the default
// kube-scheduler's bin-packing tendency under LeastAllocated inversion.
func (c *Cluster) schedule() {
	if c.injector != nil && c.injector.HoldScheduling(c.clock) {
		return // delay spike: pending pods wait for a later pass
	}
	for _, p := range c.order {
		if p.Phase != PodPending {
			continue
		}
		var best *node
		bestLeft := -1
		for _, nn := range c.nodeOrder {
			n := c.nodes[nn]
			leftCPU := n.allocatable.CPUMilli - n.usedCPU - p.Spec.CPUMilli
			leftMem := n.allocatable.MemoryMB - n.usedMem - p.Spec.MemoryMB
			if leftCPU < 0 || leftMem < 0 {
				continue
			}
			if best == nil || leftCPU < bestLeft {
				best, bestLeft = n, leftCPU
			}
		}
		if best == nil {
			continue // stays pending
		}
		best.usedCPU += p.Spec.CPUMilli
		best.usedMem += p.Spec.MemoryMB
		c.runningCPU += p.Spec.CPUMilli
		p.NodeName = best.name
		p.Phase = PodRunning
		p.StartedAt = c.clock
		c.tracer.Event("cluster", "place",
			telemetry.Str("pod", p.Name),
			telemetry.Str("node", best.name),
			telemetry.Int("cpu_milli", p.Spec.CPUMilli))
		c.tracer.Metrics().Inc("cluster_pods_placed")
	}
}

// terminatePod terminates one live pod: it releases the pod's node
// resources and drops it from its deployment's list, keeping the rest in
// creation order. The pod stays in the walk order until the dead
// outnumber the live; then one compaction pass drops them all, keeping
// creation order: O(1) amortised per termination.
func (c *Cluster) terminatePod(p *Pod) {
	d := c.deployments[p.Deployment]
	for i := len(d.pods) - 1; i >= 0; i-- { // victims are usually last
		if d.pods[i] == p {
			d.pods = slices.Delete(d.pods, i, i+1) // zeroes the stale tail
			break
		}
	}
	if p.Phase == PodRunning {
		n := c.nodes[p.NodeName]
		n.usedCPU -= p.Spec.CPUMilli
		n.usedMem -= p.Spec.MemoryMB
		c.runningCPU -= p.Spec.CPUMilli
	}
	p.Phase = PodTerminated
	p.cpuUsageMilli = 0
	delete(c.pods, p.Name)
	c.dead++
	if c.dead <= len(c.pods) {
		return
	}
	live := c.order[:0]
	for _, q := range c.order {
		if q.Phase != PodTerminated {
			live = append(live, q)
		}
	}
	clear(c.order[len(live):])
	c.order = live
	c.dead = 0
}

// terminateAll terminates every live pod of a deployment, newest first.
func (c *Cluster) terminateAll(d *Deployment) {
	for len(d.pods) > 0 {
		c.terminatePod(d.pods[len(d.pods)-1])
	}
}

// deploymentPods returns a deployment's live pods in creation order, or
// nil for an unknown deployment. The slice is the index itself: read-only.
func (c *Cluster) deploymentPods(deployment string) []*Pod {
	if d, ok := c.deployments[deployment]; ok {
		return d.pods
	}
	return nil
}

// RunningPods returns the number of Running pods in a deployment — the
// effective parallelism the Flink layer sees.
func (c *Cluster) RunningPods(deployment string) int {
	n := 0
	for _, p := range c.deploymentPods(deployment) {
		if p.Phase == PodRunning {
			n++
		}
	}
	return n
}

// PendingPods returns the number of unschedulable pods in a deployment.
func (c *Cluster) PendingPods(deployment string) int {
	n := 0
	for _, p := range c.deploymentPods(deployment) {
		if p.Phase == PodPending {
			n++
		}
	}
	return n
}

// Pods returns a snapshot (copies) of all live pods, ordered by creation.
func (c *Cluster) Pods() []Pod {
	out := make([]Pod, 0, len(c.pods))
	for _, p := range c.order {
		if p.Phase != PodTerminated {
			out = append(out, *p)
		}
	}
	return out
}

// PodsView returns pointers to all live pods, ordered by creation,
// without copying. The slice aliases a reused scratch buffer (the same
// contract as PodMetrics): it is read-only and only valid until the next
// PodsView call or any cluster mutation.
//
//lint:hotpath
func (c *Cluster) PodsView() []*Pod {
	out := c.podsBuf[:0]
	for _, p := range c.order {
		if p.Phase != PodTerminated {
			out = append(out, p)
		}
	}
	c.podsBuf = out
	return out
}

// DeploymentSpec returns a deployment's current pod template.
func (c *Cluster) DeploymentSpec(name string) (ResourceSpec, bool) {
	d, ok := c.deployments[name]
	if !ok {
		return ResourceSpec{}, false
	}
	return d.Spec, true
}

// Deployments returns the deployment names in sorted order.
func (c *Cluster) Deployments() []string {
	out := make([]string, 0, len(c.deployments))
	for name := range c.deployments {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// TotalRunningCPUMilli returns the CPU currently reserved by running pods.
func (c *Cluster) TotalRunningCPUMilli() int { return c.runningCPU }

// Tick advances the cluster clock by the given seconds, accruing cost for
// every running pod and retrying scheduling of pending pods.
func (c *Cluster) Tick(seconds int64) {
	if seconds < 0 {
		panic("cluster: negative tick")
	}
	c.clock += seconds
	coreSeconds := float64(c.TotalRunningCPUMilli()) / 1000 * float64(seconds)
	c.cost += coreSeconds / 3600 * c.pricePerCPU
	c.schedule()
	if c.injector != nil {
		c.injector.AfterTick(c, c.clock)
	}
}

// Clock returns the cluster time in seconds since start.
func (c *Cluster) Clock() int64 { return c.clock }

// Cost returns the dollars accrued so far.
func (c *Cluster) Cost() float64 { return c.cost }

// PricePerCoreHour returns the configured price.
func (c *Cluster) PricePerCoreHour() float64 { return c.pricePerCPU }

// ErrUnknownPod is returned by metrics operations on missing pods.
var ErrUnknownPod = errors.New("cluster: unknown pod")

// ReportCPUUsage lets the workload layer report a pod's current CPU usage
// in millicores; the metrics server exposes it via PodMetrics.
func (c *Cluster) ReportCPUUsage(podName string, milli int) error {
	p, ok := c.pods[podName]
	if !ok {
		return ErrUnknownPod
	}
	p.cpuUsageMilli = clampUsage(milli, p.Spec.CPUMilli)
	return nil
}

// ReportDeploymentUsage reports the same utilization (usage/limit) for
// every running pod of a deployment: each pod's usage becomes
// int(util·limit), clamped as in ReportCPUUsage. The stream substrates
// call it once per operator per simulated second, so it walks only the
// deployment's own pods. An unknown deployment has no pods to report.
//
//lint:hotpath
func (c *Cluster) ReportDeploymentUsage(deployment string, util float64) {
	for _, p := range c.deploymentPods(deployment) {
		if p.Phase == PodRunning {
			p.cpuUsageMilli = clampUsage(int(util*float64(p.Spec.CPUMilli)), p.Spec.CPUMilli)
		}
	}
}

// clampUsage bounds a reported usage to [0, limit].
func clampUsage(milli, limit int) int {
	if milli < 0 {
		return 0
	}
	if milli > limit {
		return limit
	}
	return milli
}

// PodMetric is one row of the metrics-server response.
type PodMetric struct {
	Pod        string
	Deployment string
	CPUMilli   int // usage
	CPULimit   int // spec
}

// PodMetrics returns usage for every running pod (the Kubernetes
// Metrics Server surface the Job Monitor scrapes). The returned slice
// aliases a reused scratch buffer and is only valid until the next
// PodMetrics call; copy it to retain rows.
func (c *Cluster) PodMetrics() []PodMetric {
	out := c.metricsBuf[:0]
	for _, p := range c.order {
		if p.Phase != PodRunning {
			continue
		}
		out = append(out, PodMetric{
			Pod:        p.Name,
			Deployment: p.Deployment,
			CPUMilli:   p.cpuUsageMilli,
			CPULimit:   p.Spec.CPUMilli,
		})
	}
	c.metricsBuf = out
	return out
}

// DeploymentUtilization returns the mean CPU utilization (usage/limit) of
// a deployment's running pods, or 0 with ok=false when none run.
func (c *Cluster) DeploymentUtilization(deployment string) (float64, bool) {
	var sum float64
	n := 0
	for _, p := range c.deploymentPods(deployment) {
		if p.Phase == PodRunning {
			sum += float64(p.cpuUsageMilli) / float64(p.Spec.CPUMilli)
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}
