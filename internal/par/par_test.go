package par

import (
	"bytes"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestForExactlyOnce is the pool's property test: at every worker count,
// including more workers than items and the GOMAXPROCS default, every
// index runs exactly once and nothing outside [0, n) runs. Run under
// -race it also shows the per-index slot discipline is race-free.
func TestForExactlyOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 4, 16} {
		for _, n := range []int{0, 1, 3, 100} {
			counts := make([]atomic.Int32, n)
			var stray atomic.Int32
			For(n, workers, func(i int) {
				if i < 0 || i >= n {
					stray.Add(1)
					return
				}
				counts[i].Add(1)
			})
			if s := stray.Load(); s != 0 {
				t.Fatalf("workers=%d n=%d: %d calls outside [0, n)", workers, n, s)
			}
			for i := range counts {
				if c := counts[i].Load(); c != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, c)
				}
			}
		}
	}
}

// goroutineHeader returns the "goroutine N [...]" line identifying the
// calling goroutine.
func goroutineHeader() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	if i := bytes.IndexByte(buf, '['); i > 0 {
		buf = buf[:i]
	}
	return string(buf)
}

// TestForSerialOrder: one worker runs inline on the caller's goroutine
// in ascending index order, for every n.
func TestForSerialOrder(t *testing.T) {
	caller := goroutineHeader()
	for _, n := range []int{0, 1, 3, 100} {
		var got []int
		var elsewhere []string
		For(n, 1, func(i int) {
			if g := goroutineHeader(); g != caller {
				elsewhere = append(elsewhere, g)
			}
			got = append(got, i)
		})
		if len(elsewhere) > 0 {
			t.Fatalf("n=%d: ran on %q, want the caller %q", n, elsewhere[0], caller)
		}
		if len(got) != n {
			t.Fatalf("n=%d: %d calls", n, len(got))
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("n=%d: serial order broken at %d: %v", n, i, got[:i+1])
			}
		}
	}
}

// TestForResultsIndependentOfWorkers: a computation written to
// per-index slots and reduced in index order is identical at every
// worker count — the property the seeded outputs rest on.
func TestForResultsIndependentOfWorkers(t *testing.T) {
	const n = 64
	run := func(workers int) []int64 {
		out := make([]int64, n)
		For(n, workers, func(i int) {
			v := int64(i)
			for k := 0; k < 1000; k++ {
				v = v*6364136223846793005 + 1442695040888963407
			}
			out[i] = v
		})
		return out
	}
	want := run(1)
	for _, workers := range []int{0, 2, 4, 16, 100} {
		got := run(workers)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: slot %d diverged", workers, i)
			}
		}
	}
}

// TestForParallelismIsReal: with four workers over four items, all four
// calls are in flight at once. Each call parks until every call has
// arrived, so a pool that ran them one at a time would never release.
func TestForParallelismIsReal(t *testing.T) {
	const n = 4
	arrived := make(chan struct{}, n)
	gate := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		For(n, n, func(int) {
			arrived <- struct{}{}
			<-gate
		})
	}()
	timeout := time.After(10 * time.Second)
	for k := 0; k < n; k++ {
		select {
		case <-arrived:
		case <-timeout:
			close(gate)
			t.Fatalf("only %d of %d calls in flight at once", k, n)
		}
	}
	close(gate)
	<-done
}
