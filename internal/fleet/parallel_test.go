package fleet

import (
	"fmt"
	"testing"

	"dragster/internal/chaos"
)

// TestFleetDecideWorkersByteIdentical pins the determinism property of
// the bounded per-round decide fan-out: any DecideWorkers setting must
// reproduce the sequential result byte for byte, with and without a
// cluster-level chaos schedule.
func TestFleetDecideWorkersByteIdentical(t *testing.T) {
	cases := []struct {
		name string
		spec func() *chaos.Spec
	}{
		{"plain", func() *chaos.Spec { return nil }},
		{"chaos", func() *chaos.Spec {
			return chaos.NewSpec("fleet-parallel").CrashLastNode(3).HealNode(5)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var want string
			for _, workers := range []int{1, 2, 4} {
				cfg := threeJobConfig(t)
				cfg.DecideWorkers = workers
				cfg.Chaos = tc.spec()
				got := resultFingerprint(t, runFleet(t, cfg))
				if workers == 1 {
					want = got
					continue
				}
				if got != want {
					t.Errorf("DecideWorkers=%d produced different bytes than DecideWorkers=1", workers)
				}
			}
		})
	}
}

// TestConfigRejectsNegativeShape: a negative shard or worker count is a
// configuration error, not a request for the default.
func TestConfigRejectsNegativeShape(t *testing.T) {
	cfg := threeJobConfig(t)
	cfg.Shards = -1
	if _, err := New(cfg); err == nil {
		t.Error("negative Shards accepted")
	}
	cfg = threeJobConfig(t)
	cfg.DecideWorkers = -1
	if _, err := New(cfg); err == nil {
		t.Error("negative DecideWorkers accepted")
	}
}

func TestOwnerStableAndInRange(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		for i := 0; i < 100; i++ {
			name := fmt.Sprintf("job-%03d", i)
			a := shardOwner(name, shards)
			b := shardOwner(name, shards)
			if a != b {
				t.Fatalf("shardOwner(%q, %d) unstable: %d then %d", name, shards, a, b)
			}
			if a < 0 || a >= shards {
				t.Fatalf("shardOwner(%q, %d) = %d out of range", name, shards, a)
			}
		}
	}
	if shardOwner("anything", 1) != 0 {
		t.Fatal("single shard must own everything")
	}
}

func TestOwnerSpreadsLoad(t *testing.T) {
	const shards, jobs = 16, 1000
	counts := make([]int, shards)
	for i := 0; i < jobs; i++ {
		counts[shardOwner(fmt.Sprintf("job-%04d", i), shards)]++
	}
	for s, c := range counts {
		// A uniform split is 62.5; allow generous skew but no dead or
		// pathologically hot shard.
		if c == 0 {
			t.Fatalf("shard %d owns no jobs", s)
		}
		if c > jobs/shards*3 {
			t.Fatalf("shard %d owns %d of %d jobs", s, c, jobs)
		}
	}
}
