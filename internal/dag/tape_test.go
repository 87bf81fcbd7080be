package dag

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"dragster/internal/stats"
)

// Tape is a minimal reverse-mode autodiff tape, kept as the oracle for
// Graph's analytic adjoint: tapeLagrangian records the DAG evaluation node
// by node, and Gradient and LagrangianGradient must reproduce its value
// and gradient bit for bit. Nodes are appended in evaluation order, so the
// backward pass is one reverse sweep.
type Tape struct{ nodes []tapeNode }

type tapeNode struct {
	value   float64
	parents [2]int     // -1 when unused
	grads   [2]float64 // local partials w.r.t. the parents
}

// Value is a handle to a node on a Tape.
type Value struct {
	tape *Tape
	idx  int
}

func (t *Tape) push(v float64, p0, p1 int, g0, g1 float64) Value {
	t.nodes = append(t.nodes, tapeNode{v, [2]int{p0, p1}, [2]float64{g0, g1}})
	return Value{t, len(t.nodes) - 1}
}

func (t *Tape) Const(v float64) Value { return t.push(v, -1, -1, 0, 0) }
func (t *Tape) Var(v float64) Value   { return t.push(v, -1, -1, 0, 0) }
func (v Value) Value() float64        { return v.tape.nodes[v.idx].value }
func (v Value) Add(o Value) Value     { return v.tape.push(v.Value()+o.Value(), v.idx, o.idx, 1, 1) }
func (v Value) Sub(o Value) Value     { return v.tape.push(v.Value()-o.Value(), v.idx, o.idx, 1, -1) }
func (v Value) Scale(c float64) Value { return v.tape.push(c*v.Value(), v.idx, -1, c, 0) }

func (v Value) Tanh() Value {
	th := math.Tanh(v.Value())
	return v.tape.push(th, v.idx, -1, 1-th*th, 0)
}

// Min routes the gradient to the attaining argument, to v on ties (the
// subgradient choice for the truncation of Eq. 4).
func (v Value) Min(o Value) Value {
	if v.Value() <= o.Value() {
		return v.tape.push(v.Value(), v.idx, o.idx, 1, 0)
	}
	return v.tape.push(o.Value(), v.idx, o.idx, 0, 1)
}

// Dot returns Σ cᵢ·vᵢ for plain constants c.
func Dot(c []float64, vs []Value) Value {
	out := vs[0].Scale(c[0])
	for i := 1; i < len(vs); i++ {
		out = out.Add(vs[i].Scale(c[i]))
	}
	return out
}

// Backward returns the adjoint of every node with respect to out.
func (t *Tape) Backward(out Value) []float64 {
	adj := make([]float64, len(t.nodes))
	adj[out.idx] = 1
	for i := out.idx; i >= 0; i-- {
		if a := adj[i]; a != 0 {
			n := &t.nodes[i]
			for k, p := range n.parents {
				if p >= 0 {
					adj[p] += a * n.grads[k]
				}
			}
		}
	}
	return adj
}

// Gradient evaluates f over fresh variables at x and returns (f(x), ∇f(x)).
func Gradient(x []float64, f func(t *Tape, vars []Value) Value) (float64, []float64) {
	t := &Tape{}
	vars := make([]Value, len(x))
	for i, xi := range x {
		vars[i] = t.Var(xi)
	}
	out := f(t, vars)
	return out.Value(), t.Backward(out)[:len(x)] // the vars are nodes 0..len(x)-1
}

// tapeH records h on the tape in the operation order of its Eval.
func tapeH(h ThroughputFunc, in []Value) Value {
	switch h := h.(type) {
	case Linear:
		return Dot(h.K, in)
	case MinRate:
		out := in[0].Scale(h.K[0])
		for i := 1; i < len(in); i++ {
			out = out.Min(in[i].Scale(h.K[i]))
		}
		return out
	case Tanh:
		return Dot(h.K, in).Tanh().Scale(h.K1)
	case *LearnedLinear:
		return in[0].Scale(h.K())
	}
	panic(fmt.Sprintf("tapeH: no tape form for %T", h))
}

// tapeLagrangian is the oracle: L(y, λ) and its gradient from a tape
// recording the topological evaluation (f(y) when lambda is nil).
func tapeLagrangian(g *Graph, rates, y, lambda []float64) (float64, []float64) {
	return Gradient(y, func(t *Tape, vars []Value) Value {
		flows := make([]Value, len(g.edges))
		demand := make([]Value, len(g.operators))
		out := t.Const(0)
		for _, id := range g.topo {
			switch g.kinds[id] {
			case Source:
				for _, ei := range g.succEdges[id] {
					flows[ei] = t.Const(g.alphaByID[ei] * rates[g.srcIndex[id]])
				}
			case Operator:
				in := make([]Value, len(g.predEdges[id]))
				for k, ei := range g.predEdges[id] {
					in[k] = flows[ei]
				}
				dem := t.Const(0)
				for _, ei := range g.succEdges[id] {
					want := tapeH(g.hByID[ei], in)
					dem = dem.Add(want)
					flows[ei] = vars[g.opIndex[id]].Scale(g.alphaByID[ei]).Min(want)
				}
				demand[g.opIndex[id]] = dem
			case Sink:
				for _, ei := range g.predEdges[id] {
					out = out.Add(flows[ei])
				}
			}
		}
		for i, dem := range demand {
			if lambda != nil && lambda[i] != 0 {
				out = out.Sub(dem.Sub(vars[i]).Scale(lambda[i])) // −λ_i·(demand_i − y_i)
			}
		}
		return out
	})
}

// checkAgainstTape fails unless the analytic L(y, λ) (f(y) when lambda is
// nil) and its gradient equal the tape's under math.Float64bits.
func checkAgainstTape(t *testing.T, g *Graph, rates, y, lambda []float64) {
	t.Helper()
	val, grad, err := g.Gradient(rates, y)
	if lambda != nil {
		val, grad, err = g.LagrangianGradient(rates, y, lambda)
	}
	if err != nil {
		t.Fatal(err)
	}
	wantVal, wantGrad := tapeLagrangian(g, rates, y, lambda)
	got, want := append(grad, val), append(wantGrad, wantVal)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("(∇L, L)[%d] = %v, tape %v (rates %v, y %v, λ %v)", i, got[i], want[i], rates, y, lambda)
		}
	}
}

// numericGrad approximates ∂f/∂x_i by central differences.
func numericGrad(x []float64, i int, f func([]float64) float64) float64 {
	const h = 1e-6
	xp := append([]float64(nil), x...)
	xm := append([]float64(nil), x...)
	xp[i] += h
	xm[i] -= h
	return (f(xp) - f(xm)) / (2 * h)
}

func TestTapeTanhGradient(t *testing.T) {
	eval := func(x []float64) float64 { return math.Tanh(2*x[0] + 1) }
	x := []float64{0.3}
	_, grad := Gradient(x, func(tp *Tape, v []Value) Value {
		return v[0].Scale(2).Add(tp.Const(1)).Tanh()
	})
	want := numericGrad(x, 0, eval)
	if math.Abs(grad[0]-want) > 1e-6 {
		t.Errorf("tanh grad = %v, want %v", grad[0], want)
	}
}

func TestTapeMinSubgradient(t *testing.T) {
	// min routes to the attaining side; ties route to the first argument.
	for _, x := range [][]float64{{2, 5}, {3, 3}} {
		_, grad := Gradient(x, func(tp *Tape, v []Value) Value { return v[0].Min(v[1]) })
		if grad[0] != 1 || grad[1] != 0 {
			t.Errorf("min%v grad = %v, want [1 0]", x, grad)
		}
	}
}

// TestTapeGradientMatchesNumericProperty checks a composite DAG-shaped
// function against central differences at random points: the same
// structure (sum of truncated mins with a tanh stage) that the graph
// evaluation builds.
func TestTapeGradientMatchesNumericProperty(t *testing.T) {
	eval := func(x []float64) float64 {
		a := math.Min(0.8*x[0], 2*x[1])
		b := math.Tanh(0.5*x[2]) * 3
		return a + math.Min(b, x[0])
	}
	f := func(r0, r1, r2 float64) bool {
		// Keep away from the min kinks where subgradients legitimately
		// disagree with central differences.
		x := []float64{2 + math.Abs(math.Mod(r0, 3)), 5 + math.Abs(math.Mod(r1, 3)), 1 + math.Abs(math.Mod(r2, 2))}
		kink := math.Abs(0.8*x[0]-2*x[1]) < 1e-3 || math.Abs(math.Tanh(0.5*x[2])*3-x[0]) < 1e-3
		if kink {
			return true
		}
		val, grad := Gradient(x, func(tp *Tape, v []Value) Value {
			a := v[0].Scale(0.8).Min(v[1].Scale(2))
			b := v[2].Scale(0.5).Tanh().Scale(3)
			return a.Add(b.Min(v[0]))
		})
		if math.Abs(val-eval(x)) > 1e-9 {
			return false
		}
		for i := range x {
			if math.Abs(grad[i]-numericGrad(x, i, eval)) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// randomMixedGraph builds a random DAG: 1–2 sources, 1–6 operators each
// fed by one or two earlier nodes, and one sink fed by every node that
// has no other successor. Operator edges draw h from fuzzH (Linear,
// MinRate, Tanh) or, on one-input operators, LearnedLinear.
func randomMixedGraph(rng *stats.RNG) (*Graph, error) {
	nSrc, nOp := 1+rng.Intn(2), 1+rng.Intn(6)
	n := nSrc + nOp + 1
	preds := make([][]int, n)
	outdeg := make([]int, n)
	link := func(from, to int) {
		preds[to] = append(preds[to], from)
		outdeg[from]++
	}
	for i := nSrc; i < n-1; i++ {
		link(rng.Intn(i), i)
		if j := rng.Intn(i); j != preds[i][0] && rng.Intn(2) == 0 {
			link(j, i)
		}
	}
	for i := 0; i < n-1; i++ {
		if outdeg[i] == 0 {
			link(i, n-1)
		}
	}
	b := NewBuilder() // node IDs follow declaration order
	for i := 0; i < nSrc; i++ {
		b.Source("src")
	}
	for i := 0; i < nOp; i++ {
		b.Operator("op")
	}
	b.Sink("sink")
	for to, ps := range preds {
		for _, from := range ps {
			var h ThroughputFunc
			if from >= nSrc {
				h = fuzzH(byte(rng.Intn(128)), len(preds[from]))
				if len(preds[from]) == 1 && rng.Intn(4) == 0 {
					h, _ = NewLearnedLinear(rng.Uniform(0.5, 2)) // a positive prior never fails
				}
			}
			b.Edge(NodeID(from), NodeID(to), h, 1/float64(outdeg[from]))
		}
	}
	return b.Build()
}

// TestAdjointMatchesTapeBitwise pins the analytic gradient to the tape
// oracle under math.Float64bits on mixed-function DAGs, with capacities
// chosen so that α·y_i == h ties occur and with zero and nonzero duals.
func TestAdjointMatchesTapeBitwise(t *testing.T) {
	rng := stats.NewRNG(41)
	var ties int
	for trial := 0; trial < 2000; trial++ {
		g, err := randomMixedGraph(rng)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		rates := make([]float64, g.NumSources())
		for i := range rates {
			rates[i] = []float64{64, 128, rng.Uniform(10, 1000)}[rng.Intn(3)]
		}
		y := make([]float64, g.NumOperators())
		for i := range y {
			y[i] = []float64{32, 64, rng.Uniform(1, 2000)}[rng.Intn(3)]
		}
		// Tie some operators to one of their edges, in topological order:
		// an operator's inputs depend only on upstream capacities, so the
		// tie survives the later assignments.
		for _, id := range g.topo {
			if g.kinds[id] != Operator || rng.Intn(2) == 0 {
				continue
			}
			rep, err := g.Evaluate(rates, y)
			if err != nil {
				t.Fatal(err)
			}
			in := make([]float64, len(g.predEdges[id]))
			for k, ei := range g.predEdges[id] {
				in[k] = rep.flows[ei]
			}
			ei := g.succEdges[id][rng.Intn(len(g.succEdges[id]))]
			want, alpha := g.hByID[ei].Eval(in), g.alphaByID[ei]
			oi := g.opIndex[id]
			if y[oi] = want / alpha; alpha*y[oi] == want {
				ties++
			}
		}
		checkAgainstTape(t, g, rates, y, nil)
		lambda := make([]float64, len(y))
		for i := range lambda {
			if rng.Intn(3) > 0 {
				lambda[i] = []float64{0.5, 1, rng.Uniform(0, 2)}[rng.Intn(3)]
			}
		}
		checkAgainstTape(t, g, rates, y, lambda)
	}
	if ties < 1000 {
		t.Fatalf("only %d α·y == h ties in 2000 graphs; the tie-break is under-tested", ties)
	}
}
