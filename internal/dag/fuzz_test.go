package dag

import (
	"math"
	"testing"
)

// FuzzGraphBuild drives Builder with arbitrary node kinds and edge lists.
// Build must never panic: every malformed topology (cycles, dangling
// operators, arity-mismatched throughput functions) has to surface as an
// error. A built graph must satisfy its structural invariants, evaluate
// cleanly, and match the tape oracle's Lagrangian gradient bit for bit.
//
// Layout: n = 1 + data[0]%8 nodes; one byte b per node (kind b%3; for an
// operator y = 25·(1+(b>>2)&3) and λ = (b>>4)/8); then (from, to, sel)
// edge triples, decoded into h by fuzzH.
func FuzzGraphBuild(f *testing.F) {
	// A valid chain source → op → sink, a cycle, a fan-out, and a
	// two-source MinRate join.
	f.Add([]byte{2, 0, 1, 2, 0, 1, 0, 1, 2, 0})
	f.Add([]byte{1, 1, 1, 0, 1, 0, 1, 0, 0})
	f.Add([]byte{3, 0, 0x31, 0x13, 2, 0, 1, 0, 0, 2, 0, 1, 3, 2, 2, 3, 6})
	f.Add([]byte{4, 0, 0, 0x31, 0x94, 2, 0, 2, 0, 1, 2, 0, 2, 3, 1, 3, 4, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			t.Skip("not enough bytes")
		}
		n := 1 + int(data[0])%8 // 1..8 nodes
		data = data[1:]
		if len(data) < n {
			t.Skip("not enough bytes")
		}
		nodeBytes := data[:n]
		b := &Builder{}
		kinds := make([]Kind, n)
		for i, nb := range nodeBytes {
			kinds[i] = Kind(int(nb) % 3)
			switch kinds[i] {
			case Source:
				b.Source("src")
			case Operator:
				b.Operator("op")
			case Sink:
				b.Sink("sink")
			}
		}
		edgeBytes := data[n:]
		indeg, outdeg := make([]int, n), make([]int, n)
		for e := edgeBytes; len(e) >= 3; e = e[3:] {
			outdeg[int(e[0])%n]++
			indeg[int(e[1])%n]++
		}
		for e := edgeBytes; len(e) >= 3; e = e[3:] {
			from, to := NodeID(int(e[0])%n), NodeID(int(e[1])%n)
			var h ThroughputFunc
			if kinds[from] == Operator {
				h = fuzzH(e[2], indeg[from])
			}
			b.Edge(from, to, h, 1/float64(outdeg[from]))
		}

		g, err := b.Build()
		if err != nil {
			return // rejected input: the error is the contract
		}

		if got := g.NumOperators(); got != len(g.Operators()) {
			t.Fatalf("NumOperators = %d, Operators() has %d", got, len(g.Operators()))
		}
		if got := g.NumSources(); got != len(g.Sources()) {
			t.Fatalf("NumSources = %d, Sources() has %d", got, len(g.Sources()))
		}
		for i, id := range g.Operators() {
			if g.KindOf(id) != Operator {
				t.Fatalf("operator list holds node %d of kind %v", id, g.KindOf(id))
			}
			if g.OperatorIndex(id) != i {
				t.Fatalf("OperatorIndex(%d) = %d, want %d", id, g.OperatorIndex(id), i)
			}
			if g.OperatorName(i) != g.Name(id) {
				t.Fatalf("OperatorName(%d) = %q, Name = %q", i, g.OperatorName(i), g.Name(id))
			}
			if len(g.Preds(id)) == 0 || len(g.Succs(id)) == 0 {
				t.Fatalf("operator %d dangling: preds=%v succs=%v", id, g.Preds(id), g.Succs(id))
			}
		}
		for _, id := range g.Sources() {
			if len(g.Preds(id)) != 0 {
				t.Fatalf("source %d has predecessors %v", id, g.Preds(id))
			}
		}
		for _, id := range g.Sinks() {
			if len(g.Succs(id)) != 0 {
				t.Fatalf("sink %d has successors %v", id, g.Succs(id))
			}
		}

		rates := make([]float64, g.NumSources())
		for i := range rates {
			rates[i] = 100
		}
		y := make([]float64, g.NumOperators())
		lambda := make([]float64, g.NumOperators())
		for i, id := range g.Operators() {
			y[i] = 25 * float64(1+(nodeBytes[id]>>2)&3)
			lambda[i] = float64(nodeBytes[id]>>4) / 8
		}
		tp, err := g.Throughput(rates, y)
		if err != nil {
			t.Fatalf("Throughput on built graph: %v", err)
		}
		if math.IsNaN(tp) || math.IsInf(tp, 0) || tp < 0 {
			t.Fatalf("Throughput = %v, want finite and non-negative", tp)
		}
		checkAgainstTape(t, g, rates, y, lambda)
	})
}

// fuzzH decodes an edge's selector byte into an h of the given arity:
// sel%3 picks Linear, MinRate or Tanh, (sel>>2)&3 the weights, and
// sel&0x80 one input too many, which Build must reject.
func fuzzH(sel byte, arity int) ThroughputFunc {
	if sel&0x80 != 0 {
		arity++
	}
	ks := make([]float64, arity)
	for i := range ks {
		ks[i] = []float64{0.5, 1, 2, 0.25}[(int(sel>>2)+i)&3]
	}
	switch sel % 3 {
	case 0:
		return Linear{K: ks}
	case 1:
		return MinRate{K: ks}
	}
	for i := range ks {
		ks[i] /= 100
	}
	return Tanh{K1: 200, K: ks}
}
