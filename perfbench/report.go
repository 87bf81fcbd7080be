package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// metric is one named figure of a run.
type metric struct {
	Name  string
	Value float64
	Unit  string
	Note  string // sample count, percentile, or caveat; printed, not in JSON
}

// report accumulates a run's metrics, its operation counts and the
// outcome of every correctness check.
type report struct {
	metrics   []metric
	notes     []string
	attempted int
	failed    int
	failures  []string
}

// note records a line printed ahead of the metrics (digests, checks).
func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) add(name string, v float64, unit, note string) {
	r.metrics = append(r.metrics, metric{Name: name, Value: v, Unit: unit, Note: note})
}

// op counts one attempted operation (a round, submit, kill or failover)
// and records it as failed when err is non-nil.
func (r *report) op(what string, err error) {
	r.attempted++
	if err != nil {
		r.fail(what, err.Error())
	}
}

// check records a correctness check; a mismatch counts as a failure.
func (r *report) check(name string, ok bool, format string, args ...any) {
	if !ok {
		r.fail(name, fmt.Sprintf(format, args...))
	}
}

func (r *report) fail(what, detail string) {
	r.failed++
	r.failures = append(r.failures, what+": "+detail)
}

func (r *report) correct() bool { return r.failed == 0 && r.attempted > 0 }

// jsonMetric is the value/unit pair of the result line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// write prints every metric as a readable line, then the result object
// as the last line: the metrics named in want, in that order.
func (r *report) write(w io.Writer, want []string) error {
	byName := make(map[string]metric, len(r.metrics))
	for _, m := range r.metrics {
		byName[m.Name] = m
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "%s\n", n)
	}
	for _, m := range r.metrics {
		note := ""
		if m.Note != "" {
			note = "  (" + m.Note + ")"
		}
		fmt.Fprintf(w, "metric %-28s %14.6g %-6s%s\n", m.Name, m.Value, m.Unit, note)
	}
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "metric %-28s %14.6g %-6s  (%d failed of %d attempted)\n", "failed_frac", frac, "1", r.failed, r.attempted)
	for _, f := range r.failures {
		fmt.Fprintf(w, "FAIL %s\n", f)
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]jsonMetric, len(want))}
	for _, name := range want {
		m, ok := byName[name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not finite: %v", name, m.Value)
		}
		out.Metrics[name] = jsonMetric{Value: m.Value, Unit: m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// machine describes where a result was measured.
type machine struct {
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Trace      int     `json:"trace"`
	Seconds    float64 `json:"seconds"`
}

func describeMachine(workload string, seed int64, trace int, seconds float64) machine {
	return machine{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     gitCommit(),
		Workload:   workload,
		Seed:       seed,
		Trace:      trace,
		Seconds:    seconds,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit names the checked-out commit, or "unknown" outside a git
// work tree (the benchmark also runs from plain source exports). It reads
// .git in the working directory rather than running git, which would
// look at directories above the checkout.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, symbolic := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !symbolic {
		return ref // detached HEAD holds the commit itself
	}
	if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPercentiles are the candidates for a tail figure, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 80, 75}

// tail returns the highest percentile of tailPercentiles that leaves at
// least ten of n samples beyond it, with its value over xs; (50, median)
// when n is too small for any of them. n is the sample count every run
// reaches, so the percentile does not depend on how many extra rounds
// the time budget allowed.
func tail(xs []float64, n int) (pct, v float64) {
	for _, p := range tailPercentiles {
		if float64(n)*(1-p/100) >= 10 {
			return p, quantile(xs, p/100)
		}
	}
	return 50, median(xs)
}

// Set-up sampling: a set-up can take well under a millisecond, so it is
// repeated until setupTime is spent (at least minSetups, at most
// maxSetups times) and reported as the median.
const (
	minSetups = 5
	maxSetups = 1000
	setupTime = time.Second
)

// timeSetups times fn repeatedly, each set-up followed by a kernel run.
func timeSetups(k *kernel, fn func() error) (*timings, error) {
	out := newTimings(k)
	var spent time.Duration
	for len(out.wall) < minSetups || (spent < setupTime && len(out.wall) < maxSetups) {
		sp := startSpan()
		if err := fn(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		wall, cpu := sp.end()
		spent += wall
		out.add(wall, cpu)
	}
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func secs(d time.Duration) float64 { return d.Seconds() }

func durations(ds []time.Duration, unit func(time.Duration) float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = unit(d)
	}
	return out
}

// liveHeap is the runtime metric for the heap the latest collection
// found live.
var liveHeap = []metrics.Sample{{Name: "/gc/heap/live:bytes"}}

// heapNow returns the live heap bytes — what the latest collection
// marked, so the figure does not swing with where a round boundary falls
// in the collection cycle, as the in-use heap does — and the cumulative
// allocated bytes.
func heapNow() (live, allocBytes uint64) {
	var s runtime.MemStats
	runtime.ReadMemStats(&s)
	metrics.Read(liveHeap)
	return liveHeap[0].Value.Uint64(), s.TotalAlloc
}

// mallocsNow is the cumulative heap-object count (exact: ReadMemStats
// flushes the per-P caches).
func mallocsNow() uint64 {
	var s runtime.MemStats
	runtime.ReadMemStats(&s)
	return s.Mallocs
}
