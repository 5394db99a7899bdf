// Quickstart: build a small logic network with the public API, run it
// through the full SOI domino mapping pipeline (decompose -> unate ->
// map), and inspect the result.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"soidomino/internal/decompose"
	"soidomino/internal/logic"
	"soidomino/internal/mapper"
	"soidomino/internal/netlist"
	"soidomino/internal/unate"
	"soidomino/internal/verify"
)

func main() {
	// 1. Describe the logic: f = (a XOR b) AND (c OR !d), g = NAND(a, c).
	n := logic.New("quickstart")
	a := n.AddInput("a")
	b := n.AddInput("b")
	c := n.AddInput("c")
	d := n.AddInput("d")
	x := n.AddGate(logic.Xor, a, b)
	or := n.AddGate(logic.Or, c, n.AddGate(logic.Not, d))
	n.AddOutput("f", n.AddGate(logic.And, x, or))
	n.AddOutput("g", n.AddGate(logic.Nand, a, c))
	fmt.Println("source: ", n)

	// 2. Decompose to 2-input AND/OR + inverters, then make it unate
	//    (inverters pushed to the primary inputs, the form domino needs).
	dec, err := decompose.Decompose(n)
	if err != nil {
		log.Fatal(err)
	}
	u, err := unate.Convert(dec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("unate:  ", u.Network)

	// 3. Map to SOI domino logic: the DP minimizes total transistors
	//    including the p-discharge devices that prevent the Parasitic
	//    Bipolar Effect. mapper.Domino and mapper.RS are the PBE-blind
	//    baselines the paper compares against.
	res, err := mapper.Map(context.Background(), mapper.SOI, u.Network, mapper.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("mapped: ", res.Stats)
	fmt.Print(res.Dump())

	// 4. Verify the mapping computes the same functions.
	if err := verify.MustBeEquivalent(n, res, verify.DefaultOptions()); err != nil {
		log.Fatal(err)
	}
	fmt.Println("equivalence verified")

	// 5. Realize at the transistor level.
	circ, err := netlist.Build(res)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("netlist: %d devices (%d clock-connected)\n",
		len(circ.Devices), circ.Stats.TClock())
}
