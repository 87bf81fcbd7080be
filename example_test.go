package dragster_test

import (
	"fmt"
	"log"

	"dragster"
)

// ExampleNewGraphBuilder builds the WordCount DAG by hand and evaluates
// its steady-state throughput under explicit capacities (Eq. 4).
func ExampleNewGraphBuilder() {
	b := dragster.NewGraphBuilder()
	src := b.Source("source")
	mp := b.Operator("map")
	sh := b.Operator("shuffle")
	snk := b.Sink("sink")
	b.Edge(src, mp, nil, 1)
	b.Edge(mp, sh, dragster.Selectivity(2), 1) // flatMap: 2 words per line
	b.Edge(sh, snk, dragster.Selectivity(1), 1)
	g, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	// Offered 100 lines/s; map capacity 150 words/s is the bottleneck.
	th, err := g.Throughput([]float64{100}, []float64{150, 1000})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("throughput: %.0f tuples/s\n", th)
	// Output: throughput: 150 tuples/s
}

// ExampleGraph_Gradient shows the reverse-mode bottleneck signal: the
// saturated operator carries all the throughput gradient.
func ExampleGraph_Gradient() {
	b := dragster.NewGraphBuilder()
	src := b.Source("source")
	mp := b.Operator("map")
	sh := b.Operator("shuffle")
	snk := b.Sink("sink")
	b.Edge(src, mp, nil, 1)
	b.Edge(mp, sh, dragster.Selectivity(2), 1)
	b.Edge(sh, snk, dragster.Selectivity(1), 1)
	g, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	_, grad, err := g.Gradient([]float64{100}, []float64{150, 1000})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("∂f/∂y_map=%.0f ∂f/∂y_shuffle=%.0f\n", grad[0], grad[1])
	// Output: ∂f/∂y_map=1 ∂f/∂y_shuffle=0
}

// ExampleNewController wires the Dragster controller against a fabricated
// monitor snapshot (normally produced by the Job Monitor each slot).
func ExampleNewController() {
	b := dragster.NewGraphBuilder()
	src := b.Source("source")
	op := b.Operator("op")
	snk := b.Sink("sink")
	b.Edge(src, op, nil, 1)
	b.Edge(op, snk, dragster.Selectivity(1), 1)
	g, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	ctrl, err := dragster.NewController(dragster.ControllerConfig{
		Graph:    g,
		Method:   dragster.SaddlePoint,
		YMax:     1000,
		NoiseVar: 100,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(ctrl.Name())
	// Output: dragster-saddle-point
}

// ExampleNewLearnedLinear fits an unknown selectivity online (Theorem 2).
func ExampleNewLearnedLinear() {
	l, err := dragster.NewLearnedLinear(1.0) // prior guess: 1 output per input
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := l.ObserveRates(100, 250); err != nil { // truth: 2.5
			log.Fatal(err)
		}
	}
	fmt.Printf("learned selectivity ≈ %.2f\n", l.K())
	// Output: learned selectivity ≈ 2.43
}
