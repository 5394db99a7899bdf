package canon

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"strconv"
	"strings"

	"soidomino/internal/logic"
)

// Form is the canonical description of a network: a relabeling of its
// nodes plus the serialized structure the fingerprint hashes.
type Form struct {
	// Order maps canonical label -> original node id.
	Order []int
	// Label maps original node id -> canonical label.
	Label []int

	text []byte
}

// Bytes returns the serialized canonical description. It is deterministic
// and self-contained: hashing it yields the fingerprint.
func (f *Form) Bytes() []byte { return bytes.Clone(f.text) }

// Hash returns the hex-encoded SHA-256 of the canonical description.
func (f *Form) Hash() string {
	sum := sha256.Sum256(f.text)
	return hex.EncodeToString(sum[:])
}

// Hash is shorthand for Canonicalize(n).Hash().
func Hash(n *logic.Network) string { return Canonicalize(n).Hash() }

// sigItem is one ready node in the canonical topological sort. Its
// signature is sigs[off:end] of the sorter's shared signature buffer.
type sigItem struct {
	off, end int
	id       int // original node id, the final tie-break
}

// sorter is a min-heap of ready nodes ordered by (signature, id).
type sorter struct {
	sigs  []byte
	items []sigItem
}

func (s *sorter) less(i, j int) bool {
	a, b := s.items[i], s.items[j]
	if c := bytes.Compare(s.sigs[a.off:a.end], s.sigs[b.off:b.end]); c != 0 {
		return c < 0
	}
	return a.id < b.id
}

func (s *sorter) push(it sigItem) {
	s.items = append(s.items, it)
	for i := len(s.items) - 1; i > 0; {
		p := (i - 1) / 2
		if !s.less(i, p) {
			break
		}
		s.items[i], s.items[p] = s.items[p], s.items[i]
		i = p
	}
}

func (s *sorter) pop() sigItem {
	top := s.items[0]
	last := len(s.items) - 1
	s.items[0] = s.items[last]
	s.items = s.items[:last]
	for i := 0; ; {
		m, l, r := i, 2*i+1, 2*i+2
		if l < last && s.less(l, m) {
			m = l
		}
		if r < last && s.less(r, m) {
			m = r
		}
		if m == i {
			break
		}
		s.items[i], s.items[m] = s.items[m], s.items[i]
		i = m
	}
	return top
}

// Canonicalize relabels every node of n by a deterministic topological
// order: among the nodes whose fanins are all labeled, the smallest
// structural signature goes next. Dead nodes are included — they still
// shape the mapping through fanout counts.
func Canonicalize(n *logic.Network) *Form {
	size := n.Len()
	f := &Form{
		Order: make([]int, 0, size),
		Label: make([]int, size),
	}
	for i := range f.Label {
		f.Label[i] = -1
	}

	// pending counts each node's unlabeled fanins; the users of node fi
	// (its dependents, once per fanin occurrence) are
	// users[first[fi]:first[fi+1]].
	pending := make([]int, size)
	first := make([]int, size+1)
	for id := range n.Nodes {
		pending[id] = len(n.Nodes[id].Fanin)
		for _, fi := range n.Nodes[id].Fanin {
			first[fi+1]++
		}
	}
	for i := 1; i <= size; i++ {
		first[i] += first[i-1]
	}
	users := make([]int, first[size])
	next := slices.Clone(first[:size])
	for id := range n.Nodes {
		for _, fi := range n.Nodes[id].Fanin {
			users[next[fi]] = id
			next[fi]++
		}
	}

	s := &sorter{
		sigs:  make([]byte, 0, 16*size),
		items: make([]sigItem, 0, 64),
	}
	// ready signs node id — op|name|label|label... — and queues it.
	ready := func(id int) {
		node := &n.Nodes[id]
		off := len(s.sigs)
		s.sigs = append(s.sigs, node.Op.String()...)
		s.sigs = append(s.sigs, '|')
		s.sigs = append(s.sigs, node.Name...)
		for _, fi := range node.Fanin {
			s.sigs = append(s.sigs, '|')
			s.sigs = strconv.AppendInt(s.sigs, int64(f.Label[fi]), 10)
		}
		s.push(sigItem{off, len(s.sigs), id})
	}

	for id := range n.Nodes {
		if pending[id] == 0 {
			ready(id)
		}
	}
	text := make([]byte, 0, 24*size)
	for len(s.items) > 0 {
		it := s.pop()
		label := len(f.Order)
		f.Label[it.id] = label
		f.Order = append(f.Order, it.id)
		text = append(text, 'n')
		text = strconv.AppendInt(text, int64(label), 10)
		text = append(text, ' ')
		text = append(text, s.sigs[it.off:it.end]...)
		text = append(text, '\n')
		for _, u := range users[first[it.id]:first[it.id+1]] {
			if pending[u]--; pending[u] == 0 {
				ready(u)
			}
		}
	}
	// A Network is topological by construction, so every node is labeled.

	text = append(text, "inputs"...)
	for _, id := range n.Inputs {
		text = append(text, ' ')
		text = strconv.AppendInt(text, int64(f.Label[id]), 10)
	}
	text = append(text, '\n')

	outs := slices.Clone(n.Outputs)
	slices.SortFunc(outs, func(a, b logic.Output) int {
		if c := strings.Compare(a.Name, b.Name); c != 0 {
			return c
		}
		return cmp.Compare(f.Label[a.Node], f.Label[b.Node])
	})
	for _, out := range outs {
		text = append(text, "out "...)
		text = append(text, out.Name...)
		text = append(text, ' ')
		text = strconv.AppendInt(text, int64(f.Label[out.Node]), 10)
		text = append(text, '\n')
	}
	f.text = text
	return f
}
