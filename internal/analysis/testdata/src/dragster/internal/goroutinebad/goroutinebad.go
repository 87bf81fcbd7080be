// Package goroutinebad exercises the goroutine analyzer's one-pool
// rule: every launch outside the //lint:workerpool helper is flagged,
// however it is joined; only the helper and a reasoned waiver are clean.
package goroutinebad

import "sync"

// FireAndForget drops a goroutine on the floor.
func FireAndForget(f func()) {
	go f() // want `goroutine launched in FireAndForget`
}

// LiteralNoJoin launches a literal with no lifecycle.
func LiteralNoJoin() {
	go func() { // want `goroutine launched in LiteralNoJoin`
		_ = 1 + 1
	}()
}

// WaitGroupJoin is joined, but it is a second pool. Flagged.
func WaitGroupJoin(n int) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() { // want `goroutine launched in WaitGroupJoin`
			defer wg.Done()
		}()
	}
	wg.Wait()
}

// DoneChannel signals completion over a channel. Flagged.
func DoneChannel() <-chan struct{} {
	done := make(chan struct{})
	go func() { // want `goroutine launched in DoneChannel`
		close(done)
	}()
	return done
}

// ResultChannel sends its result; the receiver joins implicitly.
// Flagged.
func ResultChannel() <-chan int {
	out := make(chan int, 1)
	go func() { // want `goroutine launched in ResultChannel`
		out <- 42
	}()
	return out
}

// worker joins through the WaitGroup it receives.
func worker(wg *sync.WaitGroup) {
	defer wg.Done()
}

// PassWaitGroup hands the WaitGroup to a named worker. Flagged.
func PassWaitGroup() {
	var wg sync.WaitGroup
	wg.Add(1)
	go worker(&wg) // want `goroutine launched in PassWaitGroup`
	wg.Wait()
}

// orphan has no lifecycle of its own.
func orphan() {}

// LaunchOrphan launches a named function that never signals.
func LaunchOrphan() {
	go orphan() // want `goroutine launched in LaunchOrphan`
}

// Run is the designated pool helper: launches inside it are audited by
// the annotation, not the analyzer. Clean.
//
//lint:workerpool
func Run(f func()) {
	go f()
}

// Waived documents why this launch is exempt. Clean.
func Waived(f func()) {
	//lint:allow goroutine fixture demonstrates the reasoned waiver
	go f()
}

// ShardPoolDispatch is a hand-rolled strided pool: per-shard workers
// writing to caller-owned result slots, joined on a WaitGroup before the
// (sequential) reduction. Correct, but a duplicate of the one pool.
// Flagged.
func ShardPoolDispatch(members [][]int, workers int, fn func(i int)) {
	var wg sync.WaitGroup
	for _, shard := range members {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(shard []int, w int) { // want `goroutine launched in ShardPoolDispatch`
				defer wg.Done()
				for k := w; k < len(shard); k += workers {
					fn(shard[k])
				}
			}(shard, w)
		}
	}
	wg.Wait()
}

// ShardPoolNoJoin is the same strided walk with the join forgotten: the
// round loop would race its own decide workers and the event trace would
// depend on scheduling. Flagged.
func ShardPoolNoJoin(members [][]int, workers int, fn func(i int)) {
	for _, shard := range members {
		for w := 0; w < workers; w++ {
			go func(shard []int, w int) { // want `goroutine launched in ShardPoolNoJoin`
				for k := w; k < len(shard); k += workers {
					fn(shard[k])
				}
			}(shard, w)
		}
	}
}
