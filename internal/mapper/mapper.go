package mapper

import (
	"context"
	"fmt"
	"time"

	"soidomino/internal/faultpoint"
	"soidomino/internal/logic"
	"soidomino/internal/obs"
	"soidomino/internal/tuple"
	"soidomino/internal/unate"
)

// Algorithm selects one of the mappers (see the package comment). All
// run the same dynamic program: SOI puts discharge transistors into its
// cost and orders stacks while combining; RS and RSDeep add a post-pass
// to Domino.
type Algorithm uint8

const (
	Domino Algorithm = iota // PBE-blind baseline; discharges inserted after mapping
	RS                      // Domino + Rearrange_Stacks on each gate's ground-side stack (§VI-A)
	RSDeep                  // RS's post-pass applied to every series group (extension)
	SOI                     // discharge-aware DP cost and par_b/p_dis stack order (§V)
)

// algorithms gives each Algorithm its request key and display name.
var algorithms = [...]struct{ key, name string }{
	Domino: {"domino", "Domino_Map"},
	RS:     {"rs", "RS_Map"},
	RSDeep: {"rsdeep", "RS_Map_deep"},
	SOI:    {"soi", "SOI_Domino_Map"},
}

func (a Algorithm) valid() bool { return int(a) < len(algorithms) }

// Algorithms lists every Algorithm in order.
func Algorithms() []Algorithm { return []Algorithm{Domino, RS, RSDeep, SOI} }

// String returns the paper's name of the algorithm, e.g. "SOI_Domino_Map".
func (a Algorithm) String() string {
	if !a.valid() {
		return fmt.Sprintf("Algorithm(%d)", a)
	}
	return algorithms[a].name
}

// Key returns the algorithm's request key: domino, rs, rsdeep or soi.
func (a Algorithm) Key() string { return algorithms[a].key }

// ParseAlgorithm resolves a request key to its Algorithm.
func ParseAlgorithm(key string) (Algorithm, error) {
	for a, s := range algorithms {
		if s.key == key {
			return Algorithm(a), nil
		}
	}
	return 0, fmt.Errorf("unknown algorithm %q (want domino, rs, rsdeep or soi)", key)
}

// Map runs alg over a unate network. The run observes ctx at
// node-processing checkpoints and returns ctx.Err() if it is canceled or
// its deadline passes before the dynamic program completes.
func Map(ctx context.Context, alg Algorithm, n *logic.Network, opt Options) (*Result, error) {
	cfg := config{Options: opt, alg: alg}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := unate.IsUnate(n); err != nil {
		return nil, fmt.Errorf("mapper: input network is not unate: %w", err)
	}
	name := cfg.name()
	e := newEngine(ctx, n, cfg)
	e.stats.SetAlgorithm(name)
	if e.tracer != nil {
		kv := []obs.KV{{Key: "nodes", Val: int64(n.Len())}}
		if id := obs.RequestID(ctx); id != "" {
			e.tracer.Instant("mapper", "run "+name+" request "+id, kv...)
		} else {
			e.tracer.Instant("mapper", "run "+name, kv...)
		}
	}
	if err := obs.Timed(e.stats, e.tracer, obs.PhaseDP, name, e.process); err != nil {
		return nil, err
	}
	var res *Result
	err := obs.Timed(e.stats, e.tracer, obs.PhaseTraceback, name, func() error {
		if ferr := e.faults.Check(ctx, PointTraceback); ferr != nil {
			return fmt.Errorf("mapper: %s traceback: %w", name, ferr)
		}
		var terr error
		res, terr = e.traceback()
		return terr
	})
	if err != nil {
		return nil, err
	}
	res.Degraded = e.degraded
	return res, nil
}

// Deprecated: use Map with Domino.
func DominoMapContext(ctx context.Context, n *logic.Network, opt Options) (*Result, error) {
	return Map(ctx, Domino, n, opt)
}

// Deprecated: use Map with RS.
func RSMapContext(ctx context.Context, n *logic.Network, opt Options) (*Result, error) {
	return Map(ctx, RS, n, opt)
}

// Deprecated: use Map with RSDeep.
func RSMapDeepContext(ctx context.Context, n *logic.Network, opt Options) (*Result, error) {
	return Map(ctx, RSDeep, n, opt)
}

// Deprecated: use Map with SOI.
func SOIDominoMapContext(ctx context.Context, n *logic.Network, opt Options) (*Result, error) {
	return Map(ctx, SOI, n, opt)
}

// newEngine sets up the DP state for one run of a validated config.
func newEngine(ctx context.Context, n *logic.Network, cfg config) *engine {
	e := &engine{
		ctx:    ctx,
		cfg:    cfg,
		net:    n,
		stats:  obs.StatsFrom(ctx),
		tracer: obs.TracerFrom(ctx),
		faults: faultpoint.From(ctx),
		// FanoutCounts, not ComputeFanout: mapping must not write to the
		// input network, so runs sharing one network can proceed in
		// parallel.
		fanout:  n.FanoutCounts(),
		outRefs: n.OutputRefs(),
		tables:  make([]tuple.Table, n.Len()),
		gateIdx: make([]int32, n.Len()),
		formed:  make([]tuple.Tuple, n.Len()),
		hasGate: make([]bool, n.Len()),
	}
	// Method values bound once: the DP hands them to every insert and
	// comparison, and binding per call would allocate.
	e.lessFn, e.formLessFn = e.less, e.formLess
	// The table scratch is sized by the validated MaxWidth x MaxHeight
	// bound.
	if cfg.Pareto {
		e.table = tuple.NewFrontier(cfg.MaxWidth, cfg.MaxHeight, e.tupleCost)
	} else {
		e.table = tuple.NewGrid(cfg.MaxWidth, cfg.MaxHeight, e.lessFn)
	}
	return e
}

// engine holds the dynamic-programming state for one mapping run.
type engine struct {
	ctx     context.Context
	cfg     config
	net     *logic.Network
	fanout  []int
	outRefs []int
	// stats and tracer are the run's observability hooks, both nil when
	// the context carries none; the nil path is a single branch per
	// recording site (see internal/obs). faults follows the same
	// contract for the run's fault-injection registry.
	stats  *obs.Stats
	tracer *obs.Tracer
	faults *faultpoint.Registry

	// keptTuples and degraded implement the Pareto tuple budget: when
	// the cumulative frontier population exceeds Options.TupleBudget,
	// the run keeps going but every frontier from that node on is
	// trimmed to one tuple per shape, and the result is flagged
	// Degraded instead of the process OOMing on a pathological input.
	keptTuples int
	degraded   bool

	lessFn, formLessFn tuple.Less

	tables  []tuple.Table // per And/Or node: kept tuples and their derivations
	gateIdx []int32       // per node: the table index chosen at gate formation
	formed  []tuple.Tuple // per node: cumulative totals of the formed gate
	hasGate []bool

	// Scratch reused across every node of the sweep: the dense {W,H}
	// table a node's tuples are built in, the two fanins' candidate
	// buffers, and the combine calls since the node's last checkpoint.
	table    tableScratch
	ua, ub   []cand
	combines int
}

// tupleCost maps a tuple's components to the scalar the configured
// objective minimizes.
func (e *engine) tupleCost(t tuple.Tuple) int {
	switch e.cfg.Objective {
	case Depth:
		c := e.cfg.DepthWeight * int(t.Depth)
		if e.cfg.alg == SOI {
			c += int(t.NDisch)
		}
		return c
	default:
		c := int(t.NTrans) + e.cfg.ClockWeight*int(t.NClock)
		if e.cfg.alg == SOI {
			c += e.cfg.ClockWeight * int(t.NDisch)
		}
		return c
	}
}

// less orders tuples for table insertion and gate formation. The SOI
// algorithm breaks cost ties by p_dis (listing 2); the bulk baseline is
// PBE-blind, so its fallback chain never consults p_dis or discharge
// counts. The remaining fallbacks only serve determinism.
func (e *engine) less(a, b tuple.Tuple) bool {
	if ca, cb := e.tupleCost(a), e.tupleCost(b); ca != cb {
		return ca < cb
	}
	if e.cfg.alg == SOI {
		if a.PDis != b.PDis {
			return a.PDis < b.PDis
		}
		if a.NDisch != b.NDisch {
			return a.NDisch < b.NDisch
		}
	}
	if da, db := a.NTrans+a.NClock, b.NTrans+b.NClock; da != db {
		return da < db
	}
	if a.NGates != b.NGates {
		return a.NGates < b.NGates
	}
	return a.Depth < b.Depth
}

// formLess compares tuples by the cost of the gates they would form.
func (e *engine) formLess(a, b tuple.Tuple) bool {
	return e.less(e.form(a), e.form(b))
}

// form converts a partial structure into a completed gate's cumulative
// totals: output inverter (2) and keeper join NTrans, the p-clock (plus an
// n-clock foot for PI-driven pulldowns) joins NClock, and the structure's
// potential discharge points vanish because its bottom is grounded.
func (e *engine) form(t tuple.Tuple) tuple.Tuple {
	g := t
	g.NTrans += 3
	g.NClock++
	if t.HasPI || e.cfg.AlwaysFooted {
		g.NClock++
	}
	g.NGates++
	g.Depth++
	g.PDis = 0
	g.PDisBot = 0
	g.ParB = false
	return g
}

// isLeaf reports whether the node is a mapping leaf (primary input or
// complemented primary-input literal).
func (e *engine) isLeaf(id int) bool {
	return unate.IsLeaf(e.net, id)
}

// forcedRoot reports whether an And/Or node must become a gate root: it
// feeds more than one gate or drives a primary output, so parents may only
// use its completed gate output (standard tree-decomposition mapping; the
// paper is silent on multi-fanout handling).
func (e *engine) forcedRoot(id int) bool {
	return e.fanout[id] > 1 || e.outRefs[id] > 0
}

// leafTuple is the single {1,1} sub-solution of a mapping leaf.
func leafTuple() tuple.Tuple {
	return tuple.Tuple{W: 1, H: 1, NTrans: 1, HasPI: true}
}

// gateAsInput is the {1,1} sub-solution that uses the child's completed
// gate output to drive a single transistor ("an extra transistor is needed
// in the next level", paper §IV). For forced roots the child's gate exists
// regardless of this parent's choice, so only the marginal transistor is
// charged; for single-fanout children the full gate cost rides along so
// the DP can trade early gate formation against larger pulldowns.
func (e *engine) gateAsInput(id int) tuple.Tuple {
	f := &e.formed[id]
	t := tuple.Tuple{W: 1, H: 1, NTrans: 1, Depth: f.Depth}
	if !e.forcedRoot(id) {
		t.NTrans += f.NTrans
		t.NClock = f.NClock
		t.NDisch = f.NDisch
		t.NGates = f.NGates
	}
	return t
}

// cand pairs a usable tuple with the Choice that reconstructs it.
type cand struct {
	t  tuple.Tuple
	ch tuple.Choice
}

// usable enumerates the sub-solutions a parent may draw from child id, in
// deterministic (table) order, appending them to buf[:0].
func (e *engine) usable(id int, buf []cand) ([]cand, error) {
	out := buf[:0]
	if e.isLeaf(id) {
		return append(out, cand{leafTuple(), tuple.Choice{Node: int32(id)}}), nil
	}
	if !e.hasGate[id] {
		return nil, fmt.Errorf("mapper: node %d (%s) is not mappable", id, e.net.Nodes[id].Op)
	}
	if !e.forcedRoot(id) {
		for i, t := range e.tables[id].Tuples {
			out = append(out, cand{t, tuple.Choice{Node: int32(id), Index: int32(i)}})
		}
	}
	return append(out, cand{e.gateAsInput(id), tuple.Choice{Node: int32(id), Index: tuple.GateIndex}}), nil
}

// combineOr implements the paper's combine_or: widths add, heights max,
// costs and p_dis add, par_b becomes true.
func combineOr(a, b *tuple.Tuple) tuple.Tuple {
	return tuple.Tuple{
		W:        a.W + b.W,
		H:        max(a.H, b.H),
		NTrans:   a.NTrans + b.NTrans,
		NClock:   a.NClock + b.NClock,
		NDisch:   a.NDisch + b.NDisch,
		OwnDisch: a.OwnDisch + b.OwnDisch,
		NGates:   a.NGates + b.NGates,
		Depth:    max(a.Depth, b.Depth),
		PDis:     a.PDis + b.PDis,
		// The whole result is one parallel stack, so every potential point
		// belongs to the bottom-most parallel element.
		PDisBot: a.PDis + b.PDis,
		ParB:    true,
		HasPI:   a.HasPI || b.HasPI,
	}
}

// stackOrder decides combine_and's series order, reporting whether a
// goes on top. SOI chooses the order from par_b and p_dis: a
// parallel-at-bottom input goes to the bottom (it may reach ground); if
// both or neither qualify, the larger p_dis goes to the bottom. The PBE-blind mappers keep source order or, under
// OrderHashed, a pseudorandom one.
func (e *engine) stackOrder(a, b *cand) bool {
	switch {
	case e.cfg.alg == SOI:
		topIsA := true
		switch {
		case a.t.ParB && !b.t.ParB:
			topIsA = false // a goes to the bottom
		case b.t.ParB && !a.t.ParB:
			topIsA = true
		default:
			topIsA = a.t.PDis <= b.t.PDis // larger p_dis to the bottom
		}
		if e.faults.Flip(PointInvertReorder) {
			topIsA = !topIsA // test-only fault injection; see fault.go
		}
		return topIsA
	case e.cfg.BaselineStackOrder == OrderHashed:
		return mixChoices(a, b)&1 == 0
	}
	return true // source order: first operand on top
}

// combineAnd implements the paper's combine_and with the stack order
// fixed by the caller (stackOrder, or both orders in Pareto mode). If the
// top has a parallel bottom, its potential points plus the new junction
// are discharged immediately; otherwise the junction joins the potential
// set.
func combineAnd(a, b *tuple.Tuple, topIsA bool) tuple.Tuple {
	top, bottom := a, b
	if !topIsA {
		top, bottom = b, a
	}
	t := tuple.Tuple{
		W:        max(a.W, b.W),
		H:        a.H + b.H,
		NTrans:   a.NTrans + b.NTrans,
		NClock:   a.NClock + b.NClock,
		NDisch:   a.NDisch + b.NDisch,
		OwnDisch: a.OwnDisch + b.OwnDisch,
		NGates:   a.NGates + b.NGates,
		Depth:    max(a.Depth, b.Depth),
		ParB:     bottom.ParB,
		HasPI:    a.HasPI || b.HasPI,
	}
	if top.ParB {
		// The top's bottom-most parallel stack can never reach ground: its
		// potential points and its bottom common node (the new junction)
		// materialize as discharges. Potential points the top holds below
		// non-parallel elements stay potential: they only ever materialize
		// through an enclosing parallel branch.
		t.NDisch += top.PDisBot + 1
		t.OwnDisch += top.PDisBot + 1
		t.PDis = (top.PDis - top.PDisBot) + bottom.PDis
	} else {
		t.PDis = top.PDis + bottom.PDis + 1
	}
	t.PDisBot = bottom.PDisBot
	return t
}

// combineCheckInterval bounds the work between in-loop cancellation
// checkpoints: one context poll per this many combine calls, so a node
// with a huge Pareto cross-product cannot overrun a job deadline by more
// than a bounded slice of work. The per-node combine counter resets at
// every node boundary, which keeps the CancelChecks stat a pure function
// of the network and options.
const combineCheckInterval = 1024

// process fills the DP tables (paper listing 2): one topological sweep
// over the nodes, each mapped from its finished fanin tables.
func (e *engine) process() error {
	for id := range e.net.Nodes {
		if err := e.processNode(id); err != nil {
			return err
		}
	}
	return nil
}

// processNode maps one node. Every node boundary is a cancellation
// checkpoint: a canceled or expired context aborts the run with
// ctx.Err() instead of finishing the DP; combineCheck adds bounded
// in-loop checkpoints inside large cross-products.
func (e *engine) processNode(id int) error {
	e.stats.AddCancelCheck()
	if err := e.ctx.Err(); err != nil {
		return fmt.Errorf("mapper: %s canceled at node %d of %d: %w",
			e.cfg.name(), id, e.net.Len(), err)
	}
	if err := e.faults.Check(e.ctx, PointCombine); err != nil {
		return fmt.Errorf("mapper: %s at node %d: %w", e.cfg.name(), id, err)
	}
	e.combines = 0
	node := &e.net.Nodes[id]
	switch node.Op {
	case logic.Input, logic.Not:
		// Leaves: handled on demand by usable().
	case logic.Const0, logic.Const1:
		if e.fanout[id] > 0 {
			return fmt.Errorf("mapper: constant node %d feeds gates; fold constants before mapping", id)
		}
	case logic.And, logic.Or:
		traced := e.tracer.SampleNode(id)
		var nodeStart time.Time
		if traced {
			nodeStart = time.Now()
		}
		var err error
		if e.ua, err = e.usable(node.Fanin[0], e.ua); err != nil {
			return err
		}
		if e.ub, err = e.usable(node.Fanin[1], e.ub); err != nil {
			return err
		}
		tb, err := e.fill(id, node.Op)
		if err != nil {
			return err
		}
		e.tables[id] = tb
		best, _ := tb.Best(e.formLessFn)
		e.gateIdx[id] = int32(best)
		e.formed[id] = e.form(tb.Tuples[best])
		e.hasGate[id] = true
		e.stats.AddNode(tb.Len())
		if traced {
			e.tracer.Span("dp", fmt.Sprintf("node %d %s", id, node.Op), nodeStart,
				obs.KV{Key: "cands_a", Val: int64(len(e.ua))},
				obs.KV{Key: "cands_b", Val: int64(len(e.ub))},
				obs.KV{Key: "kept", Val: int64(tb.Len())})
		}
	default:
		return fmt.Errorf("mapper: node %d has unsupported op %s", id, node.Op)
	}
	return nil
}

// tableScratch is the scratch a node's table is built in:
// tuple.Grid for the paper's one tuple per {W,H}, tuple.Frontier in
// Pareto mode.
type tableScratch interface {
	Insert(tuple.Tuple, tuple.Deriv) bool
	Len() int
	Finish() tuple.Table
}

// fill runs the node's combine sweep over its candidate cross-product and
// returns the finished table. The paper's mode composes each AND pair in
// the order stackOrder picks; Pareto mode emits both orders and lets
// dominance decide. An error leaves the scratch dirty; it also ends the
// run, so no node reuses it.
func (e *engine) fill(id int, op logic.Op) (tuple.Table, error) {
	for i := range e.ua {
		a := &e.ua[i]
		for j := range e.ub {
			b := &e.ub[j]
			orders, n := [2]bool{true, false}, 2
			switch {
			case op == logic.Or:
				n = 1 // a parallel composition has no order
			case !e.cfg.Pareto:
				orders[0], n = e.stackOrder(a, b), 1
			}
			for _, topIsA := range orders[:n] {
				var t tuple.Tuple
				if op == logic.Or {
					t = combineOr(&a.t, &b.t)
				} else {
					t = combineAnd(&a.t, &b.t, topIsA)
				}
				e.recordCombine(op, topIsA, &t, &a.t, &b.t)
				if err := e.combineCheck(id); err != nil {
					return tuple.Table{}, err
				}
				e.table.Insert(t, tuple.Deriv{A: a.ch, B: b.ch, TopIsA: topIsA})
			}
		}
	}
	if e.table.Len() == 0 {
		return tuple.Table{}, fmt.Errorf("mapper: node %d has no feasible tuple (W<=%d, H<=%d)",
			id, e.cfg.MaxWidth, e.cfg.MaxHeight)
	}
	tb := e.table.Finish()
	if e.cfg.Pareto && e.cfg.TupleBudget > 0 {
		e.keptTuples += tb.Len()
		if e.keptTuples > e.cfg.TupleBudget {
			e.degraded = true
		}
		if e.degraded {
			// Budget overflow: fall back to the paper's one-tuple-per-shape
			// heuristic from here on. The run still completes with a valid
			// (audit-clean) mapping; it just stops exploring frontiers.
			before := tb.Len()
			tb = tb.TrimPerKey(e.lessFn)
			e.keptTuples -= before - tb.Len()
		}
	}
	return tb, nil
}

// combineCheck is the bounded in-loop cancellation checkpoint, called
// once per combine; it polls the context every combineCheckInterval
// calls. Before it existed, a single node with a large Pareto
// cross-product could overrun a deadline by seconds between the
// node-boundary checks in processNode.
func (e *engine) combineCheck(id int) error {
	e.combines++
	if e.combines%combineCheckInterval != 0 {
		return nil
	}
	e.stats.AddCancelCheck()
	if err := e.ctx.Err(); err != nil {
		return fmt.Errorf("mapper: %s canceled inside node %d after %d combines: %w",
			e.cfg.name(), id, e.combines, err)
	}
	return nil
}

// recordCombine charges one combine call to the run's stats collector:
// the kind (OR, AND in source order, AND with the stack flipped) and the
// p-discharge devices the combination materialized, recovered from the
// cumulative OwnDisch totals so the combine functions themselves stay
// instrumentation-free. e.stats is nil-receiver safe (see obs.Stats), so
// call sites need no guard.
func (e *engine) recordCombine(op logic.Op, topIsA bool, t, a, b *tuple.Tuple) {
	or := op == logic.Or
	e.stats.AddCombine(or, !or && !topIsA, int(t.OwnDisch-a.OwnDisch-b.OwnDisch))
}

// mixChoices hashes two child choices into a deterministic value, used for
// the PBE-blind pseudorandom stack order. Each choice contributes its
// node, the {W,H} of the tuple taken ({0,0} for a completed gate output)
// and the gate bit.
func mixChoices(a, b *cand) uint64 {
	h := uint64(2166136261)
	for _, c := range [2]*cand{a, b} {
		w, ht, gate := int(c.t.W), int(c.t.H), 0
		if c.ch.Gate() {
			w, ht, gate = 0, 0, 1
		}
		for _, v := range [4]int{int(c.ch.Node), w, ht, gate} {
			h = (h ^ uint64(v)) * 16777619
		}
	}
	return h >> 7
}
