package fleet

import (
	"fmt"
	"testing"

	"dragster/internal/workload"
)

// benchmarkFleetRound measures one steady-state fleet round (simulate
// every tenant's slot, collect, decide across the worker pool, apply,
// record) at the given tenant and shard count. Manager construction and
// the first round — which admits every tenant and builds its stack —
// happen outside the timer; each b.N iteration is exactly one Step.
func benchmarkFleetRound(b *testing.B, jobs, shards int) {
	b.Helper()
	specs := make([]JobSpec, jobs)
	for i := range specs {
		spec, err := workload.WordCount()
		if err != nil {
			b.Fatal(err)
		}
		rates, err := workload.Constant(spec.LowRates)
		if err != nil {
			b.Fatal(err)
		}
		specs[i] = JobSpec{Name: fmt.Sprintf("job-%04d", i), Workload: spec, Rates: rates}
	}
	m, err := New(Config{
		Jobs:            specs,
		Slots:           b.N + 1,
		SlotSeconds:     30,
		Seed:            3,
		TotalTaskBudget: 4 * jobs,
		MaxQueue:        jobs,
		Shards:          shards,
		// Cross-job GP seeding grows the shared archive every round (all
		// tenants here share one workload kind), which makes per-round
		// cost a function of b.N; disable it so the timer sees the
		// control plane at a b.N-independent steady state.
		DisableWarmStart: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	// Admission round: every tenant arrives, is admitted, and builds its
	// controller stack. Steady-state rounds are what the benchmark pins.
	if err := m.Step(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFleetRound10Jobs(b *testing.B)   { benchmarkFleetRound(b, 10, 1) }
func BenchmarkFleetRound100Jobs(b *testing.B)  { benchmarkFleetRound(b, 100, 1) }
func BenchmarkFleetRound1000Jobs(b *testing.B) { benchmarkFleetRound(b, 1000, 1) }

func BenchmarkFleetRound1000Jobs16Shards(b *testing.B) {
	benchmarkFleetRound(b, 1000, 16)
}
