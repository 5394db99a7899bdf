// Package tuple implements the dynamic-programming sub-solution records of
// the domino technology mappers. Following Zhao–Sapatnekar (ICCAD '98) each
// logic node carries one best partial pulldown structure per {W,H}
// (width, height) configuration; the SOI mapper (paper §V) extends the
// 3-tuple {W,H,cost} to a 6-tuple that also tracks p_dis (potential
// discharge points), par_b (parallel branch at the bottom) and whether the
// structure contains primary-input-driven transistors.
//
// The ordering of tuples is supplied by the mapper: the SOI algorithm
// breaks cost ties by p_dis, while the bulk baseline must stay PBE-blind.
//
// The DP state is laid out for the combine loop: a Tuple is a 40-byte
// value with no pointers, derivations live in a store beside the tuples
// and are written only for kept candidates, and a node's table is built
// in a dense per-worker {W,H} scratch (Grid, or Frontier in Pareto mode)
// that is compacted into an exact-size Table in (W,H) order when the node
// finishes. That order is the DP's determinism source: every tie-break
// and every child enumeration reads it.
package tuple

import (
	"fmt"
	"slices"
)

// Key indexes a tuple table by pulldown width and height.
type Key struct {
	W, H int16
}

func (k Key) String() string { return fmt.Sprintf("{%d,%d}", k.W, k.H) }

// Choice identifies one child sub-solution used in a derivation: a node
// and the position of the tuple taken from its Table, or GateIndex when
// the child's completed gate output was used instead of a raw structure.
type Choice struct {
	Node  int32
	Index int32
}

// GateIndex is the Choice.Index of a child's completed gate output.
const GateIndex = -1

// Gate reports whether the choice uses the child's completed gate output.
func (c Choice) Gate() bool { return c.Index == GateIndex }

// Deriv is the traceback record of one kept tuple: the two child choices
// it combines and, for a series composition, whether A is the top of the
// stack. Whether the node composes in series or in parallel is the
// node's own operator, so it is not stored.
type Deriv struct {
	A, B   Choice
	TopIsA bool
}

// Tuple is one dynamic-programming sub-solution: a partial pulldown
// structure for a logic node. Cost components are kept separately so the
// same engine serves the area, clock-weighted and depth objectives.
type Tuple struct {
	W, H int16

	// ParB is the paper's par_b: the structure has a parallel branch at
	// its bottom.
	ParB bool
	// HasPI reports whether any transistor is driven by a primary input,
	// which forces an n-clock foot at gate formation.
	HasPI bool

	// NTrans counts non-clock transistors: the structure's own pulldown
	// devices plus the pulldown, output-inverter and keeper devices of
	// every completed gate beneath it.
	NTrans int32
	// NClock counts clock-driven transistors of completed gates beneath
	// (p-clock and n-clock feet).
	NClock int32
	// NDisch counts p-discharge transistors already materialized beneath
	// (they are clock-driven too, but reported separately as the paper's
	// T_disch).
	NDisch int32
	// OwnDisch is the subset of NDisch materialized inside this partial
	// structure itself (series combinations that buried a parallel
	// bottom), excluding discharges carried in from completed gates
	// beneath. At gate formation it is the DP's prediction of how many
	// p-discharge devices the gate's own pulldown tree will carry, which
	// the structural analysis (internal/pbe) must reproduce exactly; the
	// fuzzing oracles cross-check the two.
	OwnDisch int32
	// NGates counts completed domino gates beneath.
	NGates int32
	// Depth is the number of domino-gate levels beneath the structure
	// (the maximum over the completed gates feeding it).
	Depth int32

	// PDis is the paper's p_dis: potential discharge points that must be
	// discharged unless the structure's bottom reaches ground.
	PDis int32
	// PDisBot is the subset of PDis belonging to the structure's
	// bottom-most parallel stack (all of PDis for a bare parallel
	// composition, 0 when ParB is false). When something is stacked below
	// the structure, exactly these points — plus the new junction — must
	// materialize as discharge devices; the remaining PDis points sit
	// below non-parallel elements and are rescued by grounding the
	// enclosing gate. Tracking the split keeps the DP's discharge count
	// identical to the structural analysis of the flattened tree
	// (internal/pbe) for every association order.
	PDisBot int32
}

// Key returns the table key of the tuple.
func (t Tuple) Key() Key { return Key{t.W, t.H} }

// Less is a strict ordering over tuples; a Less(a, b) == true means a is a
// strictly better sub-solution than b.
type Less func(a, b Tuple) bool

// Table is one node's finished DP state: the kept tuples in (W,H) order
// (Pareto mode: (W,H,ParB,HasPI) order, insertion order within a key),
// with Derivs[i] the derivation of Tuples[i]. A Choice addresses a tuple
// by its index here. Both slices are exact-size.
type Table struct {
	Tuples []Tuple
	Derivs []Deriv
}

// Len returns the number of kept tuples.
func (tb Table) Len() int { return len(tb.Tuples) }

// Best returns the index of the minimum tuple under less. Ties go to the
// earliest entry, so the table's (W,H) order is the final tie-break. The
// boolean is false for an empty table.
func (tb Table) Best(less Less) (int, bool) {
	best := -1
	for i := range tb.Tuples {
		if best < 0 || less(tb.Tuples[i], tb.Tuples[best]) {
			best = i
		}
	}
	return best, best >= 0
}

// Grid builds one node's single-tuple table: a dense {W,H} array holding
// the best tuple found so far per shape. One Grid serves every node a
// worker processes; Finish compacts it and leaves it empty.
type Grid struct {
	maxW, maxH int
	less       Less
	cells      []cell
	used       []int32 // occupied cell indices
	out        slab
}

type cell struct {
	t  Tuple
	d  Deriv
	ok bool
}

// NewGrid returns an empty grid for tuples with 1 <= W <= maxW and
// 1 <= H <= maxH, ordered by less. Its size is maxW*maxH cells, so
// callers must bound both.
func NewGrid(maxW, maxH int, less Less) *Grid {
	return &Grid{maxW: maxW, maxH: maxH, less: less, cells: make([]cell, maxW*maxH)}
}

// Insert records t with its derivation d if t fits the grid's bounds and
// is the first or a strictly better tuple for its {W,H}, reporting
// whether the grid changed. On a full tie the incumbent is kept, so a
// deterministic insertion order yields a deterministic table.
func (g *Grid) Insert(t Tuple, d Deriv) bool {
	if t.W < 1 || int(t.W) > g.maxW || t.H < 1 || int(t.H) > g.maxH {
		return false
	}
	i := (int(t.W)-1)*g.maxH + int(t.H) - 1
	c := &g.cells[i]
	if c.ok {
		if !g.less(t, c.t) {
			return false
		}
	} else {
		c.ok = true
		g.used = append(g.used, int32(i))
	}
	c.t, c.d = t, d
	return true
}

// Len returns the number of populated {W,H} cells.
func (g *Grid) Len() int { return len(g.used) }

// Finish returns the grid's tuples as a Table in (W,H) order and empties
// the grid for the next node.
func (g *Grid) Finish() Table {
	slices.Sort(g.used) // cell index order is (W,H) order
	tb := g.out.take(len(g.used))
	for j, i := range g.used {
		tb.Tuples[j], tb.Derivs[j] = g.cells[i].t, g.cells[i].d
	}
	g.reset()
	return tb
}

func (g *Grid) reset() {
	for _, i := range g.used {
		g.cells[i].ok = false
	}
	g.used = g.used[:0]
}

// slabSize is the number of entries a slab allocates at once: finished
// tables are carved from shared backing arrays instead of allocating two
// slices per node.
const slabSize = 512

// slab hands out exact-size Tables from chunked backing arrays.
type slab struct {
	tuples []Tuple
	derivs []Deriv
}

func (s *slab) take(n int) Table {
	if n > len(s.tuples) {
		size := max(n, slabSize)
		s.tuples, s.derivs = make([]Tuple, size), make([]Deriv, size)
	}
	tb := Table{Tuples: s.tuples[:n:n], Derivs: s.derivs[:n:n]}
	s.tuples, s.derivs = s.tuples[n:], s.derivs[n:]
	return tb
}
