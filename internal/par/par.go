// Package par is the repository's one worker pool. Every fan-out in
// Dragster — the GP hyperparameter grid, seed repeats, fleet tenants'
// decide steps, the ground-truth throughput grid — is the same pattern:
// n independent work items whose results land in index-addressed slots,
// followed by a serial reduction in index order. For runs that pattern,
// so the reduction, and therefore every seeded output, is the same at
// any worker count.
package par

import (
	"runtime"
	"sync"
)

// For calls fn(i) exactly once for every i in [0, n) on min(workers, n)
// goroutines; workers ≤ 0 means GOMAXPROCS. Worker k takes the strided
// indices k, k+w, k+2w, … and For joins every worker before returning.
// fn must confine its writes to per-index slots. With one worker For
// runs fn inline on the calling goroutine in ascending index order,
// which is how single-threaded callers (a tracer's span emission)
// serialize a fan-out.
//
//lint:workerpool
func For(n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for k := 0; k < workers; k++ {
		go func(k int) {
			defer wg.Done()
			for i := k; i < n; i += workers {
				fn(i)
			}
		}(k)
	}
	wg.Wait()
}
