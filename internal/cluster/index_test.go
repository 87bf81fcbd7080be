package cluster

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// scanCluster is the reference model for the pod index: the cluster as it
// was before the index, with an append-only name order that keeps
// terminated pods' names and every query answered by a full scan. The
// indexed Cluster must be observably identical to it after every
// operation. Fault injection and tracing are left out; neither touches
// the index.
type scanCluster struct {
	nodes       map[string]*node
	nodeOrder   []string
	deployments map[string]*Deployment
	pods        map[string]*Pod
	podOrder    []string
	clock       int64
	podSeq      int
	pricePerCPU float64
	cost        float64
}

func newScanCluster() *scanCluster {
	return &scanCluster{
		nodes:       make(map[string]*node),
		deployments: make(map[string]*Deployment),
		pods:        make(map[string]*Pod),
		pricePerCPU: 0.08,
	}
}

func (c *scanCluster) AddNode(name string, allocatable ResourceSpec) error {
	if err := allocatable.Validate(); err != nil {
		return err
	}
	if _, ok := c.nodes[name]; ok {
		return fmt.Errorf("node %q exists", name)
	}
	c.nodes[name] = &node{name: name, allocatable: allocatable}
	c.nodeOrder = append(c.nodeOrder, name)
	return nil
}

func (c *scanCluster) RemoveNode(name string) error {
	if _, ok := c.nodes[name]; !ok {
		return fmt.Errorf("unknown node %q", name)
	}
	delete(c.nodes, name)
	for i, nn := range c.nodeOrder {
		if nn == name {
			c.nodeOrder = append(c.nodeOrder[:i], c.nodeOrder[i+1:]...)
			break
		}
	}
	for _, podName := range c.podOrder {
		p := c.pods[podName]
		if p == nil || p.NodeName != name {
			continue
		}
		p.Phase = PodPending
		p.NodeName = ""
		p.StartedAt = 0
		p.cpuUsageMilli = 0
	}
	c.schedule()
	return nil
}

func (c *scanCluster) KillPod(name string) error {
	p, ok := c.pods[name]
	if !ok {
		return ErrUnknownPod
	}
	c.terminatePod(p)
	if _, ok := c.deployments[p.Deployment]; ok {
		c.reconcile(p.Deployment)
	}
	return nil
}

func (c *scanCluster) CreateDeployment(name string, spec ResourceSpec, replicas int) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	if replicas < 0 {
		return fmt.Errorf("negative replicas %d", replicas)
	}
	if _, ok := c.deployments[name]; ok {
		return fmt.Errorf("deployment %q exists", name)
	}
	c.deployments[name] = &Deployment{Name: name, Spec: spec, Replicas: replicas}
	c.reconcile(name)
	return nil
}

func (c *scanCluster) Scale(deployment string, replicas int) error {
	d, ok := c.deployments[deployment]
	if !ok {
		return fmt.Errorf("unknown deployment %q", deployment)
	}
	if replicas < 0 {
		return fmt.Errorf("negative replicas %d", replicas)
	}
	d.Replicas = replicas
	c.reconcile(deployment)
	return nil
}

func (c *scanCluster) Resize(deployment string, spec ResourceSpec) error {
	d, ok := c.deployments[deployment]
	if !ok {
		return fmt.Errorf("unknown deployment %q", deployment)
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	d.Spec = spec
	for _, p := range c.deploymentPods(deployment) {
		c.terminatePod(p)
	}
	c.reconcile(deployment)
	return nil
}

func (c *scanCluster) DeleteDeployment(deployment string) error {
	if _, ok := c.deployments[deployment]; !ok {
		return fmt.Errorf("unknown deployment %q", deployment)
	}
	for _, p := range c.deploymentPods(deployment) {
		c.terminatePod(p)
	}
	delete(c.deployments, deployment)
	return nil
}

func (c *scanCluster) reconcile(deployment string) {
	d := c.deployments[deployment]
	live := c.deploymentPods(deployment)
	for len(live) > d.Replicas {
		c.terminatePod(live[len(live)-1])
		live = live[:len(live)-1]
	}
	for len(live) < d.Replicas {
		c.podSeq++
		p := &Pod{
			Name:       fmt.Sprintf("%s-%d", deployment, c.podSeq),
			Deployment: deployment,
			Spec:       d.Spec,
			Phase:      PodPending,
			CreatedAt:  c.clock,
		}
		c.pods[p.Name] = p
		c.podOrder = append(c.podOrder, p.Name)
		live = append(live, p)
	}
	c.schedule()
}

func (c *scanCluster) schedule() {
	for _, name := range c.podOrder {
		p := c.pods[name]
		if p == nil || p.Phase != PodPending {
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
			continue
		}
		best.usedCPU += p.Spec.CPUMilli
		best.usedMem += p.Spec.MemoryMB
		p.NodeName = best.name
		p.Phase = PodRunning
		p.StartedAt = c.clock
	}
}

func (c *scanCluster) terminatePod(p *Pod) {
	if p.Phase == PodRunning {
		n := c.nodes[p.NodeName]
		n.usedCPU -= p.Spec.CPUMilli
		n.usedMem -= p.Spec.MemoryMB
	}
	p.Phase = PodTerminated
	p.cpuUsageMilli = 0
	delete(c.pods, p.Name)
}

func (c *scanCluster) deploymentPods(deployment string) []*Pod {
	var out []*Pod
	for _, name := range c.podOrder {
		if p := c.pods[name]; p != nil && p.Deployment == deployment {
			out = append(out, p)
		}
	}
	return out
}

func (c *scanCluster) countPods(deployment string, phase PodPhase) int {
	n := 0
	for _, p := range c.deploymentPods(deployment) {
		if p.Phase == phase {
			n++
		}
	}
	return n
}

func (c *scanCluster) Pods() []Pod {
	out := make([]Pod, 0, len(c.pods))
	for _, name := range c.podOrder {
		if p := c.pods[name]; p != nil {
			out = append(out, *p)
		}
	}
	return out
}

func (c *scanCluster) TotalRunningCPUMilli() int {
	var s int
	for _, p := range c.pods {
		if p.Phase == PodRunning {
			s += p.Spec.CPUMilli
		}
	}
	return s
}

func (c *scanCluster) Tick(seconds int64) {
	c.clock += seconds
	coreSeconds := float64(c.TotalRunningCPUMilli()) / 1000 * float64(seconds)
	c.cost += coreSeconds / 3600 * c.pricePerCPU
	c.schedule()
}

func (c *scanCluster) ReportCPUUsage(podName string, milli int) error {
	p, ok := c.pods[podName]
	if !ok {
		return ErrUnknownPod
	}
	if milli < 0 {
		milli = 0
	}
	if milli > p.Spec.CPUMilli {
		milli = p.Spec.CPUMilli
	}
	p.cpuUsageMilli = milli
	return nil
}

// reportDeploymentUsage is the per-tick usage loop the stream substrates
// ran before the index: walk every pod, report the running ones of the
// deployment one by one.
func (c *scanCluster) reportDeploymentUsage(deployment string, util float64) {
	for _, name := range c.podOrder {
		p := c.pods[name]
		if p == nil || p.Deployment != deployment || p.Phase != PodRunning {
			continue
		}
		if err := c.ReportCPUUsage(p.Name, int(util*float64(p.Spec.CPUMilli))); err != nil {
			panic(err) // unreachable: p is live
		}
	}
}

func (c *scanCluster) PodMetrics() []PodMetric {
	var out []PodMetric
	for _, name := range c.podOrder {
		p := c.pods[name]
		if p == nil || p.Phase != PodRunning {
			continue
		}
		out = append(out, PodMetric{
			Pod:        p.Name,
			Deployment: p.Deployment,
			CPUMilli:   p.cpuUsageMilli,
			CPULimit:   p.Spec.CPUMilli,
		})
	}
	return out
}

// indexStep is one fuzz-decoded operation: an opcode and two operands.
type indexStep struct{ op, a, b byte }

var indexOpNames = [10]string{
	"CreateDeployment", "Scale", "Resize", "DeleteDeployment", "KillPod",
	"RemoveNode", "AddNode", "Tick", "ReportDeploymentUsage", "ReportCPUUsage",
}

// String names the step for failure messages only, so the per-step cost
// stays off the fuzzing loop.
func (s indexStep) String() string {
	return fmt.Sprintf("%s(a=%d, b=%d)", indexOpNames[s.op%10], s.a, s.b)
}

var (
	indexDeps  = [4]string{"d0", "d1", "d2", "d3"}
	indexNodes = [4]string{"n0", "n1", "n2", "n3"}
)

// indexOp applies one step to both clusters, requires their error
// results to agree, and then compares every observable.
func indexOp(t *testing.T, c *Cluster, ref *scanCluster, s indexStep) {
	t.Helper()
	a, b := s.a, s.b
	dep, nodeName := indexDeps[a%4], indexNodes[a%4]
	spec := ResourceSpec{CPUMilli: 250 * int(1+b%4), MemoryMB: 512 * int(1+b/4%3)}
	if b == 255 {
		spec = ResourceSpec{} // invalid: both sides must reject it
	}
	// podAt names the b-th live pod (or none) so kills and single-pod
	// reports hit real pods most of the time.
	podAt := func() string {
		pods := ref.Pods()
		if len(pods) == 0 || b%8 == 7 {
			return "missing"
		}
		return pods[int(b)%len(pods)].Name
	}
	var got, want error
	switch s.op % 10 {
	case 0:
		got, want = c.CreateDeployment(dep, spec, int(b%6)), ref.CreateDeployment(dep, spec, int(b%6))
	case 1:
		n := int(b%9) - 1
		got, want = c.Scale(dep, n), ref.Scale(dep, n)
	case 2:
		got, want = c.Resize(dep, spec), ref.Resize(dep, spec)
	case 3:
		got, want = c.DeleteDeployment(dep), ref.DeleteDeployment(dep)
	case 4:
		name := podAt()
		got, want = c.KillPod(name), ref.KillPod(name)
	case 5:
		got, want = c.RemoveNode(nodeName), ref.RemoveNode(nodeName)
	case 6:
		alloc := ResourceSpec{CPUMilli: 1000 * int(1+b%4), MemoryMB: 2048 * int(1+b/4%3)}
		got, want = c.AddNode(nodeName, alloc), ref.AddNode(nodeName, alloc)
	case 7:
		c.Tick(int64(b % 3))
		ref.Tick(int64(b % 3))
	case 8:
		util := float64(b)/128 - 0.25 // spans the clamp at both ends
		c.ReportDeploymentUsage(dep, util)
		ref.reportDeploymentUsage(dep, util)
	case 9:
		name, milli := podAt(), 20*int(b)-500
		got, want = c.ReportCPUUsage(name, milli), ref.ReportCPUUsage(name, milli)
	}
	if (got == nil) != (want == nil) {
		t.Fatalf("%v: indexed err %v, scan err %v", s, got, want)
	}
	checkIndexMatches(t, s, c, ref)
}

// checkIndexMatches compares every observable the index serves with the
// reference scan, and checks the walk-order bound.
func checkIndexMatches(t *testing.T, desc indexStep, c *Cluster, ref *scanCluster) {
	t.Helper()
	if got, want := c.Pods(), ref.Pods(); !slices.Equal(got, want) {
		t.Fatalf("after %v: Pods\n got %+v\nwant %+v", desc, got, want)
	}
	got, want := c.PodMetrics(), ref.PodMetrics()
	if !slices.Equal(got, want) {
		t.Fatalf("after %v: PodMetrics\n got %+v\nwant %+v", desc, got, want)
	}
	for _, dep := range indexDeps {
		if g, w := c.RunningPods(dep), ref.countPods(dep, PodRunning); g != w {
			t.Fatalf("after %v: RunningPods(%s) = %d, want %d", desc, dep, g, w)
		}
		if g, w := c.PendingPods(dep), ref.countPods(dep, PodPending); g != w {
			t.Fatalf("after %v: PendingPods(%s) = %d, want %d", desc, dep, g, w)
		}
	}
	if g, w := c.TotalRunningCPUMilli(), ref.TotalRunningCPUMilli(); g != w {
		t.Fatalf("after %v: TotalRunningCPUMilli = %d, want %d", desc, g, w)
	}
	if g, w := c.Cost(), ref.cost; g != w {
		t.Fatalf("after %v: Cost = %v, want %v", desc, g, w)
	}
	if !slices.Equal(c.Nodes(), ref.nodeOrder) {
		t.Fatalf("after %v: Nodes = %v, want %v", desc, c.Nodes(), ref.nodeOrder)
	}
	for _, name := range ref.nodeOrder {
		g, w := c.nodes[name], ref.nodes[name]
		if g.usedCPU != w.usedCPU || g.usedMem != w.usedMem {
			t.Fatalf("after %v: node %s uses %d/%d, want %d/%d",
				desc, name, g.usedCPU, g.usedMem, w.usedCPU, w.usedMem)
		}
	}
	if live := len(c.order) - c.dead; live != len(c.pods) {
		t.Fatalf("after %v: walk order holds %d live pods, map %d", desc, live, len(c.pods))
	}
	if len(c.order) > 2*len(c.pods)+1 {
		t.Fatalf("after %v: walk order holds %d entries for %d live pods", desc, len(c.order), len(c.pods))
	}
}

func newIndexPair(t *testing.T) (*Cluster, *scanCluster) {
	t.Helper()
	c, ref := New(), newScanCluster()
	for _, name := range indexNodes[:2] {
		alloc := ResourceSpec{CPUMilli: 2000, MemoryMB: 4096}
		if err := c.AddNode(name, alloc); err != nil {
			t.Fatal(err)
		}
		if err := ref.AddNode(name, alloc); err != nil {
			t.Fatal(err)
		}
	}
	return c, ref
}

// FuzzClusterIndex drives the indexed cluster and the scan-based
// reference model with the same operation sequence and requires them to
// agree on every observable after every step.
func FuzzClusterIndex(f *testing.F) {
	// Create, scale up past capacity, report, tick, kill, lose a node,
	// resize, add a node back, delete.
	f.Add([]byte{0, 0, 3, 1, 0, 8, 8, 0, 100, 7, 0, 1, 4, 0, 2, 5, 0, 0, 2, 0, 5, 6, 0, 9, 3, 0, 0})
	f.Add([]byte{0, 1, 2, 0, 2, 5, 1, 1, 0, 1, 1, 7, 9, 0, 40, 9, 0, 200, 7, 0, 2, 3, 1, 0})
	f.Add([]byte{0, 0, 255, 2, 0, 255, 1, 3, 2, 3, 3, 0, 5, 3, 0, 4, 0, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, ref := newIndexPair(t)
		for len(data) >= 3 {
			indexOp(t, c, ref, indexStep{data[0], data[1], data[2]})
			data = data[3:]
		}
	})
}

// TestClusterIndexMatchesScanModel runs long seeded operation sequences
// through the same oracle, reaching states (many deployments, repeated
// compactions, node churn) the fuzz corpus seeds do not.
func TestClusterIndexMatchesScanModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c, ref := newIndexPair(t)
		for i := 0; i < 400; i++ {
			indexOp(t, c, ref, indexStep{byte(rng.Intn(10)), byte(rng.Intn(256)), byte(rng.Intn(256))})
		}
	}
}

// TestWalkOrderDoesNotLeak: terminated pods used to stay in the walk
// order forever, so a long-running controller's per-tick walks grew with
// every pod it ever created. Compaction bounds the order by the live set.
func TestWalkOrderDoesNotLeak(t *testing.T) {
	c := newTestCluster(t, 4)
	if err := c.CreateDeployment("tm", ResourceSpec{CPUMilli: 500, MemoryMB: 512}, 2); err != nil {
		t.Fatal(err)
	}
	check := func(i int, step string) {
		t.Helper()
		if live := len(c.pods); len(c.order) > 2*live+1 {
			t.Fatalf("cycle %d after %s: walk order holds %d pods for %d live", i, step, len(c.order), live)
		}
	}
	for i := 0; i < 1000; i++ {
		if err := c.Scale("tm", 2+i%7); err != nil {
			t.Fatal(err)
		}
		check(i, "scale up")
		if err := c.Scale("tm", 1); err != nil {
			t.Fatal(err)
		}
		check(i, "scale down")
		if err := c.Resize("tm", ResourceSpec{CPUMilli: 250 * (1 + i%3), MemoryMB: 512}); err != nil {
			t.Fatal(err)
		}
		check(i, "resize")
	}
	if c.podSeq < 3000 {
		t.Fatalf("only %d pods created; the cycles did not churn", c.podSeq)
	}
}

// TestAutoscalersKeepBorrowedPodMetrics: PodMetrics rows alias a scratch
// buffer valid until the next PodMetrics call. The autoscalers read the
// deployment index instead of calling PodMetrics, so a caller's held rows
// survive an HPA or VPA reconcile.
func TestAutoscalersKeepBorrowedPodMetrics(t *testing.T) {
	c := newTestCluster(t, 2)
	if err := c.CreateDeployment("tm", ResourceSpec{CPUMilli: 1000, MemoryMB: 1024}, 2); err != nil {
		t.Fatal(err)
	}
	c.ReportDeploymentUsage("tm", 0.5)
	held := c.PodMetrics()
	want := append([]PodMetric(nil), held...)
	// Usage moves after the scrape; a re-scrape into the same buffer
	// would overwrite the held rows with these values.
	c.ReportDeploymentUsage("tm", 0.95)

	hpa, err := NewHPA("tm", 1, 4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := hpa.Reconcile(c); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(held, want) {
		t.Fatalf("HPA.Reconcile overwrote held PodMetrics rows:\n got %+v\nwant %+v", held, want)
	}
	vpa, err := NewVPA("tm", 1.2, 100, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := vpa.Recommend(c); !ok {
		t.Fatal("VPA found no running pods")
	}
	if !slices.Equal(held, want) {
		t.Fatalf("VPA.Recommend overwrote held PodMetrics rows:\n got %+v\nwant %+v", held, want)
	}
}

// TestReportDeploymentUsage pins the per-deployment report: running pods
// get int(util·limit) clamped to [0, limit]; pending pods, other
// deployments and unknown deployments are untouched.
func TestReportDeploymentUsage(t *testing.T) {
	c := newTestCluster(t, 1) // 4000m: three 1500m pods leave one pending
	if err := c.CreateDeployment("a", ResourceSpec{CPUMilli: 1500, MemoryMB: 512}, 3); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateDeployment("b", ResourceSpec{CPUMilli: 500, MemoryMB: 512}, 1); err != nil {
		t.Fatal(err)
	}
	c.ReportDeploymentUsage("missing", 0.5)
	for _, tc := range []struct {
		util float64
		want int
	}{{0.333, 499}, {-1, 0}, {2, 1500}} {
		c.ReportDeploymentUsage("a", tc.util)
		for _, m := range c.PodMetrics() {
			want := tc.want
			if m.Deployment == "b" {
				want = 0
			}
			if m.CPUMilli != want {
				t.Errorf("util %v: pod %s usage %d, want %d", tc.util, m.Pod, m.CPUMilli, want)
			}
		}
	}
	if got := c.PendingPods("a"); got != 1 {
		t.Fatalf("PendingPods = %d, want 1", got)
	}
	for _, p := range c.Pods() {
		if p.Phase == PodPending && p.cpuUsageMilli != 0 {
			t.Errorf("pending pod %s got usage %d", p.Name, p.cpuUsageMilli)
		}
	}
}
