package repro_test

import (
	"fmt"
	"log"
	"math/rand"
	"strings"

	repro "repro"
)

// The paper's Figure 1: a triangle query with pivot label A has two
// valid bindings in the example data graph.
func Example() {
	const dataLG = `t # 0
v 0 A
v 1 B
v 2 C
v 3 C
v 4 B
v 5 A
e 0 1
e 0 2
e 0 3
e 0 4
e 1 2
e 1 3
e 4 2
e 4 3
e 5 4
e 5 2
`
	const queryLG = `t # 0
v 0 A
v 1 B
v 2 C
e 0 1
e 1 2
e 0 2
p 0
`
	g, err := repro.ParseGraph(strings.NewReader(dataLG))
	if err != nil {
		log.Fatal(err)
	}
	q, err := repro.ParseQuery(strings.NewReader(queryLG))
	if err != nil {
		log.Fatal(err)
	}
	engine, err := repro.NewEngine(g, repro.Options{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	res, err := engine.Evaluate(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Bindings)
	// Output: [0 5]
}

// Extracting a reproducible workload and evaluating it.
func ExampleExtractQueries() {
	g, err := repro.GenerateDatasetScaled("cora", 4)
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	queries, err := repro.ExtractQueries(g, 4, 3, rng)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(len(queries), "queries of size", queries[0].Size())
	// Output: 3 queries of size 4
}

// Counting bindings with an early-exit threshold (the FSM primitive).
func ExampleEngine_CountBindingsAtLeast() {
	b := repro.NewBuilder(4, 3)
	hub := b.AddNode(0)
	for i := 0; i < 3; i++ {
		leaf := b.AddNode(1)
		if err := b.AddEdge(hub, leaf); err != nil {
			log.Fatal(err)
		}
	}
	g := b.MustBuild()
	engine, err := repro.NewEngine(g, repro.Options{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	// Query: a B node attached to an A node, pivoted at B.
	qb := repro.NewBuilder(2, 1)
	qa := qb.AddNode(0)
	qbn := qb.AddNode(1)
	if err := qb.AddEdge(qa, qbn); err != nil {
		log.Fatal(err)
	}
	q, err := repro.NewQuery(qb.MustBuild(), qbn)
	if err != nil {
		log.Fatal(err)
	}
	res, err := engine.CountBindingsAtLeast(q, 2, repro.Deadline(0))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Reached, res.Count)
	// Output: true 2
}
