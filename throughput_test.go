package dragster_test

import (
	"math"
	"strings"
	"testing"

	"dragster"
)

// saturating is a user-defined one-input throughput function,
// h(e) = c·e/(c+e): increasing and concave, as the model requires.
type saturating struct{ c float64 }

func (s saturating) Eval(in []float64) float64 { return s.c * in[0] / (s.c + in[0]) }
func (s saturating) Name() string              { return "saturating" }
func (s saturating) Backprop(in []float64, adj float64, dIn []float64) {
	dIn[0] += adj * s.c * s.c / ((s.c + in[0]) * (s.c + in[0]))
}

// pairwise evaluates on any arity, but its Backprop assumes two inputs.
type pairwise struct{}

func (pairwise) Eval(in []float64) float64 { return in[0] }
func (pairwise) Name() string              { return "pairwise" }
func (pairwise) Backprop(_ []float64, adj float64, dIn []float64) {
	dIn[0] += adj
	dIn[1] += adj
}

// chain builds source → a → b → sink with a unit selectivity on a→b and
// h on b→sink.
func chain(h dragster.ThroughputFunc) (*dragster.Graph, error) {
	b := dragster.NewGraphBuilder()
	src, a, op, snk := b.Source("source"), b.Operator("a"), b.Operator("b"), b.Sink("sink")
	b.Edge(src, a, nil, 1)
	b.Edge(a, op, dragster.Selectivity(1), 1)
	b.Edge(op, snk, h, 1)
	return b.Build()
}

func TestCustomThroughputFuncDifferentiates(t *testing.T) {
	g, err := chain(saturating{c: 400})
	if err != nil {
		t.Fatal(err)
	}
	// a is the bottleneck (capacity 100 < offered 1000) and b is not, so
	// f = h(y_a) = 80 and ∂f/∂y_a = h'(y_a) = c²/(c+y_a)² = 0.64.
	f, grad, err := g.Gradient([]float64{1000}, []float64{100, 1e6})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f-80) > 1e-12 || math.Abs(grad[0]-0.64) > 1e-15 || grad[1] != 0 {
		t.Errorf("f = %v, grad = %v, want 80, [0.64 0]", f, grad)
	}
}

func TestCustomThroughputFuncBackpropArityRejectedAtBuild(t *testing.T) {
	if _, err := chain(pairwise{}); err == nil || !strings.Contains(err.Error(), "probe") {
		t.Fatalf("Build error = %v, want a throughput function probe failure", err)
	}
}
