package tuple

import "slices"

// FKey indexes a Pareto frontier: besides {W,H}, the par_b and has-PI bits
// are part of the state because they change how a sub-solution combines
// upward (stack ordering and foot insertion).
type FKey struct {
	Key   Key
	ParB  bool
	HasPI bool
}

// FKeyOf returns the frontier key of a tuple.
func FKeyOf(t Tuple) FKey {
	return FKey{Key: t.Key(), ParB: t.ParB, HasPI: t.HasPI}
}

// MaxFrontier bounds the number of incomparable tuples kept per FKey. The
// bound is a safety valve: on the benchmark suite frontiers stay small,
// and when the cap binds the cheapest entries are kept, so the mode
// degrades gracefully toward the paper's single-tuple heuristic.
const MaxFrontier = 32

// Frontier builds one node's Pareto table: per FKey, the set of mutually
// non-dominated tuples under the partial order (cost, PDis, PDisBot,
// Depth). The paper's algorithm keeps exactly one tuple per {W,H} and
// breaks ties by p_dis, which can discard a sub-solution that a later
// combination would have preferred; the frontier closes that gap (see
// the brute-force optimality tests). Like Grid it is a dense per-run
// scratch — one entry list per {W,H,ParB,HasPI} cell — that Finish
// compacts into a Table.
type Frontier struct {
	maxW, maxH int
	cost       func(Tuple) int
	cells      [][]entry
	used       []int32 // non-empty cell indices
	size       int
	out        slab
}

type entry struct {
	t Tuple
	d Deriv
}

// NewFrontier returns an empty frontier for tuples with 1 <= W <= maxW
// and 1 <= H <= maxH under the scalar cost. Its size is 4*maxW*maxH
// cells, so callers must bound both.
func NewFrontier(maxW, maxH int, cost func(Tuple) int) *Frontier {
	return &Frontier{maxW: maxW, maxH: maxH, cost: cost, cells: make([][]entry, 4*maxW*maxH)}
}

// dominates reports whether a is at least as good as b in every component
// that can influence any future combination, for the given scalar cost.
func dominates(a, b Tuple, cost func(Tuple) int) bool {
	return cost(a) <= cost(b) &&
		a.PDis <= b.PDis &&
		a.PDisBot <= b.PDisBot &&
		a.Depth <= b.Depth
}

// cellOf returns t's cell index; ascending index is (W,H,ParB,HasPI)
// order with false before true.
func (f *Frontier) cellOf(t Tuple) int {
	i := ((int(t.W)-1)*f.maxH + int(t.H) - 1) * 4
	if t.ParB {
		i += 2
	}
	if t.HasPI {
		i++
	}
	return i
}

// Insert adds t with its derivation d unless it falls outside the
// frontier's bounds or an existing entry dominates it, removing entries
// t dominates. It reports whether the frontier changed.
func (f *Frontier) Insert(t Tuple, d Deriv) bool {
	if t.W < 1 || int(t.W) > f.maxW || t.H < 1 || int(t.H) > f.maxH {
		return false
	}
	i := f.cellOf(t)
	entries := f.cells[i]
	keep := entries[:0]
	for _, e := range entries {
		if dominates(e.t, t, f.cost) {
			return false // also covers exact ties: the incumbent stays
		}
		if !dominates(t, e.t, f.cost) {
			keep = append(keep, e)
		}
	}
	keep = append(keep, entry{t, d})
	if len(keep) > MaxFrontier {
		// Drop the entry with the worst cost (ties: largest PDis).
		worst := 0
		for j := 1; j < len(keep); j++ {
			cj, cw := f.cost(keep[j].t), f.cost(keep[worst].t)
			if cj > cw || (cj == cw && keep[j].t.PDis > keep[worst].t.PDis) {
				worst = j
			}
		}
		keep = append(keep[:worst], keep[worst+1:]...)
	}
	if len(entries) == 0 {
		f.used = append(f.used, int32(i))
	}
	f.size += len(keep) - len(entries)
	f.cells[i] = keep
	return true
}

// Len returns the total number of tuples across all keys.
func (f *Frontier) Len() int { return f.size }

// Finish returns the frontier as a Table in (W,H,ParB,HasPI) order,
// insertion order within a key, and empties the frontier for the next
// node.
func (f *Frontier) Finish() Table {
	slices.Sort(f.used)
	tb := f.out.take(f.size)
	n := 0
	for _, i := range f.used {
		for _, e := range f.cells[i] {
			tb.Tuples[n], tb.Derivs[n] = e.t, e.d
			n++
		}
	}
	f.reset()
	return tb
}

// reset empties every cell, keeping its capacity for the next node.
func (f *Frontier) reset() {
	for _, i := range f.used {
		f.cells[i] = f.cells[i][:0]
	}
	f.used = f.used[:0]
	f.size = 0
}

// TrimPerKey collapses each frontier key of a finished Pareto table to
// its single best tuple under less (ties: the earliest), in place. This
// is the graceful-degradation step of a tuple-budget-bound Pareto run:
// the frontier falls back to the paper's one-tuple-per-shape heuristic,
// so mapping still completes with a valid (if possibly suboptimal)
// result instead of exhausting the budget's reason for existing —
// memory.
func (tb Table) TrimPerKey(less Less) Table {
	n := 0
	for i := 0; i < len(tb.Tuples); {
		k, best, j := FKeyOf(tb.Tuples[i]), i, i+1
		for ; j < len(tb.Tuples) && FKeyOf(tb.Tuples[j]) == k; j++ {
			if less(tb.Tuples[j], tb.Tuples[best]) {
				best = j
			}
		}
		tb.Tuples[n], tb.Derivs[n] = tb.Tuples[best], tb.Derivs[best]
		n++
		i = j
	}
	return Table{Tuples: tb.Tuples[:n:n], Derivs: tb.Derivs[:n:n]}
}
