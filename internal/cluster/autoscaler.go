package cluster

import (
	"fmt"
	"math"
)

// HPA is a Horizontal Pod Autoscaler analogue: it drives a deployment's
// replica count toward a target mean CPU utilization using the standard
// Kubernetes formula desired = ceil(current · observed/target).
//
// Dragster itself sets replica counts directly (its GP-UCB choice), but the
// HPA is part of the substrate surface and is used by tests and by the
// Dhalion baseline's scale-down rule.
type HPA struct {
	Deployment  string
	MinReplicas int
	MaxReplicas int
	TargetUtil  float64 // e.g. 0.7
	// Tolerance suppresses churn: no action while |observed/target − 1| is
	// below it (Kubernetes defaults to 0.1).
	Tolerance float64
}

// NewHPA validates the parameters and returns an HPA.
func NewHPA(deployment string, minReplicas, maxReplicas int, targetUtil float64) (*HPA, error) {
	if deployment == "" {
		return nil, fmt.Errorf("cluster: HPA needs a deployment name")
	}
	if minReplicas < 1 || maxReplicas < minReplicas {
		return nil, fmt.Errorf("cluster: HPA replica bounds [%d, %d] invalid", minReplicas, maxReplicas)
	}
	if targetUtil <= 0 || targetUtil > 1 {
		return nil, fmt.Errorf("cluster: HPA target utilization %v outside (0, 1]", targetUtil)
	}
	return &HPA{
		Deployment:  deployment,
		MinReplicas: minReplicas,
		MaxReplicas: maxReplicas,
		TargetUtil:  targetUtil,
		Tolerance:   0.1,
	}, nil
}

// Reconcile computes and applies the desired replica count from current
// metrics. It returns the resulting desired replicas and whether a scaling
// action was taken.
func (h *HPA) Reconcile(c *Cluster) (int, bool, error) {
	current := c.RunningPods(h.Deployment)
	util, ok := c.DeploymentUtilization(h.Deployment)
	if !ok || current == 0 {
		// Nothing running: ensure the minimum.
		if err := c.Scale(h.Deployment, h.MinReplicas); err != nil {
			return 0, false, err
		}
		return h.MinReplicas, true, nil
	}
	ratio := util / h.TargetUtil
	if math.Abs(ratio-1) <= h.Tolerance {
		return current, false, nil
	}
	desired := int(math.Ceil(float64(current) * ratio))
	if desired < h.MinReplicas {
		desired = h.MinReplicas
	}
	if desired > h.MaxReplicas {
		desired = h.MaxReplicas
	}
	if desired == current {
		return current, false, nil
	}
	if err := c.Scale(h.Deployment, desired); err != nil {
		return 0, false, err
	}
	return desired, true, nil
}

// VPA is a Vertical Pod Autoscaler analogue: it recommends a pod CPU size
// from observed usage with headroom and applies it via Resize.
type VPA struct {
	Deployment string
	// Headroom multiplies observed usage to leave burst room (e.g. 1.2).
	Headroom float64
	// MinCPUMilli and MaxCPUMilli bound the recommendation.
	MinCPUMilli, MaxCPUMilli int
}

// NewVPA validates the parameters and returns a VPA.
func NewVPA(deployment string, headroom float64, minCPU, maxCPU int) (*VPA, error) {
	if deployment == "" {
		return nil, fmt.Errorf("cluster: VPA needs a deployment name")
	}
	if headroom < 1 {
		return nil, fmt.Errorf("cluster: VPA headroom %v must be ≥ 1", headroom)
	}
	if minCPU <= 0 || maxCPU < minCPU {
		return nil, fmt.Errorf("cluster: VPA CPU bounds [%d, %d] invalid", minCPU, maxCPU)
	}
	return &VPA{Deployment: deployment, Headroom: headroom, MinCPUMilli: minCPU, MaxCPUMilli: maxCPU}, nil
}

// Recommend returns the CPU millicore recommendation from current metrics,
// or ok=false when no pods are running.
func (v *VPA) Recommend(c *Cluster) (int, bool) {
	var maxUsage int
	found := false
	for _, p := range c.deploymentPods(v.Deployment) {
		if p.Phase == PodRunning {
			found = true
			maxUsage = max(maxUsage, p.cpuUsageMilli)
		}
	}
	if !found {
		return 0, false
	}
	rec := int(math.Ceil(float64(maxUsage) * v.Headroom))
	if rec < v.MinCPUMilli {
		rec = v.MinCPUMilli
	}
	if rec > v.MaxCPUMilli {
		rec = v.MaxCPUMilli
	}
	return rec, true
}

// Reconcile applies the recommendation when it differs from the current
// template by more than 10%, resizing the deployment (rolling restart).
func (v *VPA) Reconcile(c *Cluster) (bool, error) {
	rec, ok := v.Recommend(c)
	if !ok {
		return false, nil
	}
	d, exists := c.deployments[v.Deployment]
	if !exists {
		return false, fmt.Errorf("cluster: unknown deployment %q", v.Deployment)
	}
	cur := d.Spec.CPUMilli
	if math.Abs(float64(rec-cur))/float64(cur) <= 0.1 {
		return false, nil
	}
	spec := d.Spec
	spec.CPUMilli = rec
	if err := c.Resize(v.Deployment, spec); err != nil {
		return false, err
	}
	return true, nil
}
