package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// Timing on a shared host.
//
// The reference box is a shared 2-CPU virtual machine. Its host takes the
// virtual CPUs away for stretches (steal time), which stretches every wall
// time, and its hardware speed drifts by ±25% within seconds: the same
// episode, with the same digest, runs its rounds at 6.6 ms in one stretch
// and at 8.5 ms in the next. Two measures answer the two effects. A span
// of an end-to-end metric (a round, a set-up) is timed in process CPU
// time, which counts every thread of the program (the driver, shard and
// LML workers, the garbage collector) and leaves out stolen time. And
// every span is followed, outside its timing, by a fixed calibration
// kernel timed in thread CPU time; the span is scaled by refKernel over
// the median kernel time of the nearest speedWindow spans. Spans are
// thereby reported in reference CPU milliseconds: the CPU time they would
// take at the speed at which the kernel takes refKernel. The kernel is
// benchmark code that no change to the program moves, so a program that
// does more or less work still shows in full. Wall-clock figures are
// printed next to the scaled ones.
const (
	refKernel   = 250 * time.Microsecond // the kernel's typical time on the reference box
	speedWindow = 5
)

// kernel is the calibration workload: a dense Cholesky factorisation, a
// sort and map updates — the float, branch and cache mix of GP
// posteriors and simulator ticks — on buffers allocated once, so it adds
// nothing to the heap figures.
type kernel struct {
	a    [40][40]float64
	src  []float64
	buf  []float64
	hits map[int]float64
	sink float64
}

func newKernel() *kernel {
	k := &kernel{src: make([]float64, 2000), buf: make([]float64, 2000), hits: make(map[int]float64, 256)}
	for i := range k.src {
		k.src[i] = math.Sin(float64(i * 7919 % 2003))
	}
	return k
}

// run times one pass of the kernel in thread CPU time, on a thread held
// for the pass.
func (k *kernel) run() time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t := threadCPU()
	n := len(k.a)
	a := &k.a
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			d := float64(i - j)
			a[i][j] = math.Exp(-d * d / 50)
		}
		a[i][i]++
	}
	for j := 0; j < n; j++ {
		s := a[j][j]
		for p := 0; p < j; p++ {
			s -= a[j][p] * a[j][p]
		}
		a[j][j] = math.Sqrt(s)
		for i := j + 1; i < n; i++ {
			s := a[i][j]
			for p := 0; p < j; p++ {
				s -= a[i][p] * a[j][p]
			}
			a[i][j] = s / a[j][j]
		}
	}
	for i, x := range k.src {
		k.buf[i] = x * a[i%n][0]
	}
	sort.Float64s(k.buf)
	clear(k.hits)
	for i := 0; i < 1000; i++ {
		k.hits[i%256] += k.buf[i]
	}
	k.sink += k.buf[len(k.buf)/2] + k.hits[17]
	return threadCPU() - t
}

// timings records timed spans, each followed by a kernel run when a
// kernel is set.
type timings struct {
	k               *kernel
	wall, cpu, kern []time.Duration
}

func newTimings(k *kernel) *timings { return &timings{k: k} }

// span is a measurement in progress.
type span struct {
	wall time.Time
	cpu  time.Duration
}

func startSpan() span { return span{wall: time.Now(), cpu: processCPU()} }

// end returns the wall and process CPU time since the span started.
func (s span) end() (wall, cpu time.Duration) { return time.Since(s.wall), processCPU() - s.cpu }

// add records a span's wall and CPU time, then runs the kernel twice and
// keeps the second time: the first pass refills the caches the span
// evicted, so the kernel's time does not depend on the program's memory
// footprint.
func (s *timings) add(wall, cpu time.Duration) {
	s.wall = append(s.wall, wall)
	s.cpu = append(s.cpu, cpu)
	if s.k != nil {
		s.k.run()
		s.kern = append(s.kern, s.k.run())
	}
}

// scaled returns every span's CPU time in reference time; it needs a
// kernel.
func (s *timings) scaled() []time.Duration {
	out := make([]time.Duration, len(s.cpu))
	for i, d := range s.cpu {
		lo := max(0, min(i-speedWindow/2, len(s.kern)-speedWindow))
		local := median(durations(s.kern[lo:min(lo+speedWindow, len(s.kern))], us))
		out[i] = time.Duration(float64(d) * us(refKernel) / local)
	}
	return out
}

// speed is the host's median speed over the spans relative to the
// reference box (above 1 is faster), for the printed notes.
func (s *timings) speed() float64 { return us(refKernel) / median(durations(s.kern, us)) }
