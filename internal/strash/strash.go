// Package strash is the structural-hashing + dead-code-elimination
// canonicalization front-end of the mapping stack. It rewrites a
// logic.Network into a semantically equivalent, usually smaller network in
// which structurally identical gates have been merged (hash-consing with
// commutative-input normalization), constant fanins have been folded, and
// every node unreachable from a primary output has been removed.
//
// The pass runs before decompose/unate in every mapper pipeline
// (report.PrepareNetworkContext) and before canonical hashing in the
// service cache key (service.CacheKey), so structurally identical but
// textually different submissions — renamed internal signals, reordered
// gate declarations, reordered commutative operands, redundant twin or
// dead logic — collapse onto one cache entry, one router shard and one
// singleflight leader.
//
// Contract (see DESIGN.md §13): strash preserves the network name, the
// primary-input set with names and declaration order, and the
// primary-output list with names and order (including duplicate outputs
// and outputs driven by inputs or constants); it preserves function at
// every primary output. It drops internal gate names, gate sharing versus
// duplication distinctions (twins merge, which changes fanout counts and
// therefore may change — but never invalidate — downstream mapping
// choices), and all dead logic. Commutative fanins are reordered by each
// operand's structural signature — NOT by local node id — so the operand
// order (which the mapper reads as series-stack order) is itself a
// function of structure alone, independent of how the source text
// happened to order declarations. Output networks are deterministic: the
// same input network always yields byte-identical strash output
// (the `make strash-determinism` gate pins this).
package strash

import (
	"bytes"
	"cmp"
	"context"
	"crypto/sha256"
	"fmt"
	"slices"

	"soidomino/internal/faultpoint"
	"soidomino/internal/logic"
)

// PointBadMerge is the package's declared fault point (Flip kind): when
// armed and it fires, one hash-cons lookup deliberately merges an OR gate
// into a structurally different AND gate's cons entry, producing an
// inequivalent network. It exists so the fuzzer can demonstrate that the
// equivalence and strash-metamorphic oracles catch front-end corruption
// and shrink it to a minimal repro; production callers never arm it
// (chaos campaigns arm only non-Flip kinds, which are inert here).
var PointBadMerge = faultpoint.Define("strash.bad-merge",
	"flip: merge one OR gate into an AND cons entry")

// Counters reports how much one Run reduced the network.
type Counters struct {
	// NodesIn and NodesOut count all nodes (inputs and constants
	// included) before and after the pass.
	NodesIn  int
	NodesOut int
	// Merged counts gate nodes that hash-consed onto an existing
	// structurally identical node.
	Merged int
	// Folded counts gate nodes simplified away without a cons hit:
	// constant folding, buffer collapse, double-negation, idempotent
	// duplicate removal down to a single operand, and complement-pair
	// cancellation all land here.
	Folded int
	// Dead counts nodes removed by the DCE sweep because no primary
	// output could reach them (primary inputs are always kept).
	Dead int
}

// Result is the outcome of one strash pass.
type Result struct {
	// Network is the canonicalized network. It is freshly built and
	// shares no mutable state with the input.
	Network *logic.Network
	// NodeMap maps every input-network node id to its representative in
	// Network, or -1 for nodes removed by DCE.
	NodeMap []int
	// Counters summarizes the reduction.
	Counters Counters
}

// Run canonicalizes n. It never fails on a structurally valid network
// (one that passes n.Check); invalid networks panic, matching the
// logic package's own programming-error convention.
func Run(n *logic.Network) *Result {
	return RunContext(context.Background(), n)
}

// builder accumulates the hash-consed network: every node carries a
// structural signature (a sha256 over its op and its fanins' signatures)
// that doubles as the cons key and the commutative-fanin sort key.
type builder struct {
	out    *logic.Network
	sigs   [][32]byte       // per out-node structural signature
	cons   map[[32]byte]int // signature -> out node id
	faults *faultpoint.Registry
	c      Counters
	const0 int
	const1 int

	// Scratch reused across gates, so hash-consing one gate allocates
	// nothing of its own: the bytes one signature hashes, the mapped
	// fanin and operand lists, and a membership table over out-node ids
	// that is live where stamp[id] == gen (count holds the parity
	// multiplicity there).
	buf   []byte
	fanin []int
	ops   []int
	stamp []uint32
	count []int32
	gen   uint32
	// arena backs the fanin lists of b.out's gates.
	arena []int
}

var (
	sigInput = []byte("i|")
	sigNot   = []byte("n|")
	sigConst = [2][]byte{[]byte("c0"), []byte("c1")}
)

// sign returns the sha256 of prefix followed by the signatures of ids.
func (b *builder) sign(prefix []byte, ids []int) [32]byte {
	buf := append(b.buf[:0], prefix...)
	for _, id := range ids {
		buf = append(buf, b.sigs[id][:]...)
	}
	b.buf = buf
	return sha256.Sum256(buf)
}

// own copies fanin into the arena and returns the copy, capped so no
// later append can reach a neighbour's list.
func (b *builder) own(fanin []int) []int {
	if cap(b.arena)-len(b.arena) < len(fanin) {
		b.arena = make([]int, 0, max(4096, len(fanin)))
	}
	start := len(b.arena)
	b.arena = append(b.arena, fanin...)
	return b.arena[start:len(b.arena):len(b.arena)]
}

// addGate appends a gate to b.out under signature sig and conses it.
func (b *builder) addGate(op logic.Op, fanin []int, sig [32]byte) int {
	id := b.out.AddGateOwned(op, b.own(fanin))
	b.sigs = append(b.sigs, sig)
	b.cons[sig] = id
	return id
}

// newGen opens a fresh membership table for one gate.
func (b *builder) newGen() {
	b.gen++
	if b.gen == 0 { // wrapped: forget every stale stamp
		clear(b.stamp)
		b.gen = 1
	}
	if n := len(b.out.Nodes); len(b.stamp) < n {
		b.stamp = append(b.stamp, make([]uint32, n-len(b.stamp))...)
		b.count = append(b.count, make([]int32, n-len(b.count))...)
	}
}

// marked reports whether out node id is in the current table.
func (b *builder) marked(id int) bool { return b.stamp[id] == b.gen }

// mark adds out node id to the current table with count zero.
func (b *builder) mark(id int) {
	b.stamp[id] = b.gen
	b.count[id] = 0
}

func (b *builder) addInput(name string) int {
	id := b.out.AddInput(name)
	b.buf = append(append(b.buf[:0], sigInput...), name...)
	b.sigs = append(b.sigs, sha256.Sum256(b.buf))
	return id
}

func (b *builder) getConst(v bool) int {
	if v {
		if b.const1 < 0 {
			b.const1 = b.out.AddConst(true)
			b.sigs = append(b.sigs, sha256.Sum256(sigConst[1]))
		}
		return b.const1
	}
	if b.const0 < 0 {
		b.const0 = b.out.AddConst(false)
		b.sigs = append(b.sigs, sha256.Sum256(sigConst[0]))
	}
	return b.const0
}

// isNotOf returns (x, true) when out node id computes NOT x; used for
// complement-pair cancellation.
func (b *builder) isNotOf(id int) (int, bool) {
	nd := &b.out.Nodes[id]
	if nd.Op == logic.Not {
		return nd.Fanin[0], true
	}
	return -1, false
}

// consNot builds (or finds) NOT x, folding constants and double negation.
func (b *builder) consNot(x int) int {
	switch b.out.Nodes[x].Op {
	case logic.Const0:
		return b.getConst(true)
	case logic.Const1:
		return b.getConst(false)
	case logic.Not:
		return b.out.Nodes[x].Fanin[0]
	}
	sig := b.sign(sigNot, []int{x})
	if id, ok := b.cons[sig]; ok {
		return id
	}
	return b.addGate(logic.Not, []int{x}, sig)
}

// sortStructural orders node ids by their structural signature
// (ties — only possible for hash collisions, since structural twins are
// already merged — break by id). This is the commutative-input
// normalization: the resulting operand order, which the mapper reads as
// series-stack order, depends on structure alone.
func (b *builder) sortStructural(ids []int) {
	slices.SortFunc(ids, func(x, y int) int {
		if c := bytes.Compare(b.sigs[x][:], b.sigs[y][:]); c != 0 {
			return c
		}
		return cmp.Compare(x, y)
	})
}

// consGate hash-conses one already-normalized gate (core op, >= 2
// structurally sorted operands).
func (b *builder) consGate(op logic.Op, ops []int) int {
	head := []byte{'g', byte(op), '|'}
	if b.faults.Flip(PointBadMerge) && op == logic.Or {
		// Deliberate corruption for fault-injection tests: sign the OR
		// as an AND, merging it into any structurally matching AND.
		head[1] = byte(logic.And)
	}
	sig := b.sign(head, ops)
	if id, ok := b.cons[sig]; ok {
		b.c.Merged++
		return id
	}
	return b.addGate(op, ops, sig)
}

// consMonotone normalizes one And/Or/Nand/Nor gate: constant folding,
// idempotent duplicate removal, complement-pair cancellation, then
// structural operand ordering keys the cons lookup. The Nand/Nor wrapper
// becomes an explicit inverter on the core gate.
func (b *builder) consMonotone(op logic.Op, fanin []int) int {
	core, invert := op, false
	switch op {
	case logic.Nand:
		core, invert = logic.And, true
	case logic.Nor:
		core, invert = logic.Or, true
	}
	// dominant is the constant that forces the core's value; identity
	// fanins drop out.
	dominant := core == logic.Or // Or: const1 dominates; And: const0
	finish := func(id int) int {
		if invert {
			return b.consNot(id)
		}
		return id
	}

	b.newGen()
	ops := b.ops[:0]
	for _, f := range fanin {
		switch b.out.Nodes[f].Op {
		case logic.Const0:
			if !dominant {
				b.c.Folded++
				return finish(b.getConst(false))
			}
			continue // identity for Or
		case logic.Const1:
			if dominant {
				b.c.Folded++
				return finish(b.getConst(true))
			}
			continue // identity for And
		}
		if b.marked(f) {
			continue // idempotence: x·x = x, x+x = x
		}
		b.mark(f)
		ops = append(ops, f)
	}
	b.ops = ops
	// Complement pair: x together with NOT x annihilates the core.
	for _, f := range ops {
		if x, ok := b.isNotOf(f); ok && b.marked(x) {
			b.c.Folded++
			return finish(b.getConst(dominant))
		}
	}
	switch len(ops) {
	case 0:
		// Every operand was an identity constant: the empty And is 1,
		// the empty Or is 0.
		b.c.Folded++
		return finish(b.getConst(!dominant))
	case 1:
		b.c.Folded++
		return finish(ops[0])
	}
	b.sortStructural(ops)
	return finish(b.consGate(core, ops))
}

// consParity normalizes one Xor/Xnor gate. Parity semantics follow
// logic.EvalAll: the gate is the parity of its fanins, complemented for
// Xnor. Const1 fanins and complemented operands toggle the complement;
// identical pairs and Const0 fanins vanish.
func (b *builder) consParity(op logic.Op, fanin []int) int {
	invert := op == logic.Xnor
	b.newGen()
	order := b.ops[:0] // distinct operands, first occurrence first
	for _, f := range fanin {
		switch b.out.Nodes[f].Op {
		case logic.Const0:
			continue
		case logic.Const1:
			invert = !invert
			continue
		}
		// Normalize NOT x to x with a complement toggle, so x and NOT x
		// land on the same parity bucket and cancel.
		if x, ok := b.isNotOf(f); ok {
			invert = !invert
			f = x
		}
		if !b.marked(f) {
			b.mark(f)
			order = append(order, f)
		}
		b.count[f]++
	}
	ops := order[:0]
	for _, f := range order {
		if b.count[f]%2 == 1 {
			ops = append(ops, f) // pairs cancel: x ^ x = 0
		}
	}
	b.ops = ops
	if len(ops) < len(fanin) {
		b.c.Folded++
	}
	finish := func(id int) int {
		if invert {
			return b.consNot(id)
		}
		return id
	}
	switch len(ops) {
	case 0:
		return finish(b.getConst(false))
	case 1:
		return finish(ops[0])
	}
	b.sortStructural(ops)
	return finish(b.consGate(logic.Xor, ops))
}

// RunContext is Run with fault-injection plumbing: a faultpoint registry
// carried by ctx may fire PointBadMerge. A plain context makes it
// identical to Run.
func RunContext(ctx context.Context, n *logic.Network) *Result {
	b := &builder{
		out:    logic.New(n.Name),
		sigs:   make([][32]byte, 0, len(n.Nodes)+2),
		cons:   make(map[[32]byte]int, len(n.Nodes)),
		faults: faultpoint.From(ctx),
		const0: -1,
		const1: -1,
	}
	b.out.Grow(len(n.Nodes) + 2)
	b.c.NodesIn = len(n.Nodes)

	// Phase 1: forward hash-consing pass. repr[i] is the id in b.out of
	// the node computing the same function as input node i.
	repr := make([]int, len(n.Nodes))
	for i := range n.Nodes {
		node := &n.Nodes[i]
		switch node.Op {
		case logic.Input:
			// Inputs are the interface: never merged, names kept.
			repr[i] = b.addInput(node.Name)
		case logic.Const0:
			repr[i] = b.getConst(false)
		case logic.Const1:
			repr[i] = b.getConst(true)
		case logic.Buf:
			repr[i] = repr[node.Fanin[0]]
			b.c.Folded++
		case logic.Not:
			x := repr[node.Fanin[0]]
			before := len(b.out.Nodes)
			id := b.consNot(x)
			if id < before { // nothing new was built
				if b.out.Nodes[id].Op == logic.Not && b.out.Nodes[id].Fanin[0] == x {
					b.c.Merged++ // cons hit on an identical inverter
				} else {
					b.c.Folded++ // constant fold or double negation
				}
			}
			repr[i] = id
		case logic.And, logic.Or, logic.Nand, logic.Nor:
			repr[i] = b.consMonotone(node.Op, b.faninRepr(repr, node.Fanin))
		case logic.Xor, logic.Xnor:
			repr[i] = b.consParity(node.Op, b.faninRepr(repr, node.Fanin))
		default:
			panic(fmt.Sprintf("strash: node %d has unknown op %v", i, node.Op))
		}
	}

	// Carry the PO bindings over before DCE decides reachability.
	out := b.out
	for _, po := range n.Outputs {
		out.AddOutput(po.Name, repr[po.Node])
	}

	// Phase 2: DCE. Keep every primary input (the interface) plus
	// everything reachable from a primary output. The worklist is
	// explicit: parser depth caps do not bound programmatically built
	// networks, so recursion depth must not scale with circuit depth.
	keep := make([]bool, len(out.Nodes))
	var stack []int
	push := func(id int) {
		if !keep[id] {
			keep[id] = true
			stack = append(stack, id)
		}
	}
	for _, po := range out.Outputs {
		push(po.Node)
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, f := range out.Nodes[id].Fanin {
			push(f)
		}
	}
	for _, in := range out.Inputs {
		keep[in] = true
	}

	// Size the final network and its one fanin array exactly.
	kept, fanins := 0, 0
	for id := range out.Nodes {
		if keep[id] {
			kept++
			fanins += len(out.Nodes[id].Fanin)
		}
	}
	final := logic.New(n.Name)
	final.Grow(kept)
	b.arena = make([]int, 0, fanins)
	finalOf := make([]int, len(out.Nodes))
	for id := range out.Nodes {
		nd := &out.Nodes[id]
		if !keep[id] {
			finalOf[id] = -1
			b.c.Dead++
			continue
		}
		switch nd.Op {
		case logic.Input:
			finalOf[id] = final.AddInput(nd.Name)
		case logic.Const0:
			finalOf[id] = final.AddConst(false)
		case logic.Const1:
			finalOf[id] = final.AddConst(true)
		default:
			start := len(b.arena)
			for _, f := range nd.Fanin {
				b.arena = append(b.arena, finalOf[f])
			}
			finalOf[id] = final.AddGateOwned(nd.Op, b.arena[start:len(b.arena):len(b.arena)])
		}
	}
	for _, po := range out.Outputs {
		final.AddOutput(po.Name, finalOf[po.Node])
	}

	nodeMap := make([]int, len(n.Nodes))
	for i := range nodeMap {
		nodeMap[i] = finalOf[repr[i]]
	}
	b.c.NodesOut = len(final.Nodes)
	return &Result{Network: final, NodeMap: nodeMap, Counters: b.c}
}

// faninRepr maps a source fanin list through repr into the builder's
// fanin scratch.
func (b *builder) faninRepr(repr []int, fanin []int) []int {
	out := b.fanin[:0]
	for _, f := range fanin {
		out = append(out, repr[f])
	}
	b.fanin = out
	return out
}
