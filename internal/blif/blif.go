// Package blif reads and writes a practical subset of the Berkeley Logic
// Interchange Format (BLIF), the interchange format the original ISCAS/MCNC
// benchmark suites circulate in. Supported constructs:
//
//	.model NAME
//	.inputs A B C ...          (continuation with trailing \ allowed)
//	.outputs X Y ...
//	.names in1 in2 ... out     followed by a PLA cover (rows of 01- + output)
//	.end
//
// Covers are converted into AND/OR/NOT networks: each on-set row becomes a
// product of literals, rows are OR-ed together; off-set covers (output
// column 0) are built the same way and complemented. Latches, subcircuits
// and don't-care covers are rejected with a descriptive error.
package blif

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"unicode"
	"unicode/utf8"

	"soidomino/internal/faultpoint"
	"soidomino/internal/logic"
)

// PointParse is the fault-injection point at the head of every parse: a
// stand-in for I/O and syntax failures on untrusted input.
var PointParse = faultpoint.Define("blif.parse", "before reading the first BLIF line")

// Input bounds: malformed or adversarial files must produce a clear error,
// never a panic or unbounded allocation.
const (
	// maxLineBytes caps one physical line (the scanner buffer).
	maxLineBytes = 1 << 20
	// maxLogicalLine caps a backslash-continued logical line, so a file of
	// endless continuations cannot accumulate memory without limit.
	maxLogicalLine = 1 << 20
	// maxEmitDepth caps .names reference nesting during network
	// construction, bounding recursion on degenerate deep chains.
	maxEmitDepth = 10000
)

// Parse reads a single .model from r and builds the equivalent network.
func Parse(r io.Reader) (*logic.Network, error) {
	return ParseContext(context.Background(), r)
}

// ParseContext is Parse honoring any fault-injection registry carried by
// ctx (the parser itself has no cancellation points; parsing is fast).
func ParseContext(ctx context.Context, r io.Reader) (*logic.Network, error) {
	if err := CheckFault(ctx); err != nil {
		return nil, err
	}
	p := &parser{names: make(map[string]*cover), patterns: make(map[string]string)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 4096), maxLineBytes)
	lineno := 0
	var pending []byte
	for sc.Scan() {
		lineno++
		// line aliases the scanner's buffer (or pending's): everything the
		// parser keeps from it is copied out before the next Scan.
		line := sc.Bytes()
		if i := bytes.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = bytes.TrimSpace(line)
		if len(pending)+len(line) > maxLogicalLine {
			return nil, fmt.Errorf("blif: line %d: continued line exceeds %d bytes", lineno, maxLogicalLine)
		}
		if bytes.HasSuffix(line, []byte{'\\'}) {
			pending = append(append(pending, line[:len(line)-1]...), ' ')
			continue
		}
		if len(pending) > 0 {
			line = append(pending, line...)
			pending = pending[:0]
		}
		if len(line) == 0 {
			continue
		}
		if err := p.line(line); err != nil {
			return nil, fmt.Errorf("blif: line %d: %w", lineno, err)
		}
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return nil, fmt.Errorf("blif: line %d: line exceeds %d bytes", lineno+1, maxLineBytes)
		}
		return nil, fmt.Errorf("blif: %w", err)
	}
	return p.build()
}

// CheckFault fires the PointParse fault armed in ctx's registry, if any,
// and returns the error ParseContext would fail with. A caller that skips
// parsing a source it has parsed before (a memoized key) calls it in
// place of the parse, so an armed fault fires exactly as often.
func CheckFault(ctx context.Context) error {
	if err := faultpoint.From(ctx).Check(ctx, PointParse); err != nil {
		return fmt.Errorf("blif: %w", err)
	}
	return nil
}

// ParseString is Parse over a string.
func ParseString(s string) (*logic.Network, error) {
	return Parse(strings.NewReader(s))
}

// cover is one .names block: a PLA over the named inputs driving out.
type cover struct {
	inputs []string
	out    string
	rows   []row
}

type row struct {
	pattern string // one rune per input: '0', '1' or '-'
	value   byte   // '0' or '1'
}

type parser struct {
	model   string
	inputs  []string
	outputs []string
	order   []string // declaration order of .names outputs
	names   map[string]*cover
	current *cover
	ended   bool
	// patterns interns cover-row patterns: a netlist repeats a handful
	// of them ("11", "1-", ...) thousands of times.
	patterns map[string]string
	// covers and rows are slabs the .names blocks and their rows are cut
	// from; the current cover's rows are always the tail of rows.
	covers []cover
	rows   []row

	// Construction scratch, reused across covers: fanin ids of the
	// covers being emitted (a stack, since emission recurses), one
	// product term's literals, one cover's terms, the NOT node shared by
	// every use of a fanin within one cover (valid where invGen[id] ==
	// gen), and the backing array the gates' fanin lists are cut from.
	stack  []int
	lits   []int
	terms  []int
	invGen []uint32
	invOf  []int
	gen    uint32
	arena  []int
}

func (p *parser) line(line []byte) error {
	if line[0] != '.' {
		return p.coverRow(line)
	}
	p.current = nil
	fields := strings.Fields(string(line))
	switch fields[0] {
	case ".model":
		if len(fields) > 1 {
			p.model = fields[1]
		}
	case ".inputs":
		p.inputs = append(p.inputs, fields[1:]...)
	case ".outputs":
		p.outputs = append(p.outputs, fields[1:]...)
	case ".names":
		if len(fields) < 2 {
			return fmt.Errorf(".names needs at least an output signal")
		}
		out := fields[len(fields)-1]
		if _, dup := p.names[out]; dup {
			return fmt.Errorf("signal %q defined twice", out)
		}
		if len(p.covers) == cap(p.covers) {
			p.covers = make([]cover, 0, max(16, 2*cap(p.covers)))
		}
		p.covers = append(p.covers, cover{inputs: fields[1 : len(fields)-1], out: out})
		c := &p.covers[len(p.covers)-1]
		p.names[c.out] = c
		p.order = append(p.order, c.out)
		p.current = c
	case ".end":
		p.ended = true
	case ".latch", ".subckt", ".gate", ".mlatch":
		return fmt.Errorf("%s is not supported (combinational BLIF only)", fields[0])
	default:
		// Ignore unknown dot-directives (.default_input_arrival etc.).
	}
	return nil
}

// nextField splits the first field off s, separating fields exactly as
// strings.Fields does, without allocating.
func nextField(s []byte) (field, rest []byte) {
	i := 0
	for i < len(s) {
		r, w := decodeRune(s[i:])
		if !unicode.IsSpace(r) {
			break
		}
		i += w
	}
	j := i
	for j < len(s) {
		r, w := decodeRune(s[j:])
		if unicode.IsSpace(r) {
			break
		}
		j += w
	}
	return s[i:j], s[j:]
}

func decodeRune(s []byte) (rune, int) {
	if s[0] < utf8.RuneSelf {
		return rune(s[0]), 1
	}
	return utf8.DecodeRune(s)
}

// addRow appends r to the current cover.
func (p *parser) addRow(r row) {
	c := p.current
	p.rows = append(p.rows, r)
	c.rows = p.rows[len(p.rows)-len(c.rows)-1:]
}

func (p *parser) coverRow(line []byte) error {
	if p.current == nil {
		return fmt.Errorf("cover row %q outside a .names block", line)
	}
	f0, rest := nextField(line)
	f1, rest := nextField(rest)
	f2, _ := nextField(rest)
	c := p.current
	switch {
	case len(c.inputs) == 0 && len(f1) == 0:
		if string(f0) != "0" && string(f0) != "1" {
			return fmt.Errorf("constant cover value %q", f0)
		}
		p.addRow(row{value: f0[0]})
	case len(f1) > 0 && len(f2) == 0:
		if len(f0) != len(c.inputs) {
			return fmt.Errorf("cover row width %d for %d inputs", len(f0), len(c.inputs))
		}
		for _, ch := range string(f0) {
			if ch != '0' && ch != '1' && ch != '-' {
				return fmt.Errorf("bad cover character %q", ch)
			}
		}
		if string(f1) != "0" && string(f1) != "1" {
			return fmt.Errorf("bad cover output %q", f1)
		}
		pattern, ok := p.patterns[string(f0)]
		if !ok {
			pattern = string(f0)
			p.patterns[pattern] = pattern
		}
		p.addRow(row{pattern: pattern, value: f1[0]})
	default:
		return fmt.Errorf("malformed cover row %q", line)
	}
	if c.rows[0].value != c.rows[len(c.rows)-1].value {
		return fmt.Errorf("mixed on-set and off-set rows for %q", c.out)
	}
	return nil
}

func (p *parser) build() (*logic.Network, error) {
	if p.model == "" {
		p.model = "blif"
	}
	n := logic.New(p.model)
	n.Grow(len(p.inputs) + 2*len(p.order))
	ids := make(map[string]int, len(p.inputs)+len(p.names))
	for _, in := range p.inputs {
		if _, dup := ids[in]; dup {
			return nil, fmt.Errorf("blif: duplicate input %q", in)
		}
		ids[in] = n.AddInput(in)
	}

	visiting := make(map[string]bool)
	var emit func(name string, depth int) (int, error)
	emit = func(name string, depth int) (int, error) {
		if id, ok := ids[name]; ok {
			return id, nil
		}
		c, ok := p.names[name]
		if !ok {
			return -1, fmt.Errorf("blif: signal %q is never defined", name)
		}
		if visiting[name] {
			return -1, fmt.Errorf("blif: combinational cycle through %q", name)
		}
		if depth > maxEmitDepth {
			return -1, fmt.Errorf("blif: signal %q nested deeper than %d", name, maxEmitDepth)
		}
		visiting[name] = true
		// This cover's fanin ids sit on the stack above base; the
		// recursive emits push and pop only above them.
		base := len(p.stack)
		for _, in := range c.inputs {
			id, err := emit(in, depth+1)
			if err != nil {
				return -1, err
			}
			p.stack = append(p.stack, id)
		}
		delete(visiting, name)
		id := p.buildCover(n, c, p.stack[base:])
		p.stack = p.stack[:base]
		n.Nodes[id].Name = name
		ids[name] = id
		return id, nil
	}

	// Emit in declaration order first so unreferenced logic is preserved,
	// then make sure every primary output exists.
	for _, name := range p.order {
		if _, err := emit(name, 0); err != nil {
			return nil, err
		}
	}
	for _, out := range p.outputs {
		id, err := emit(out, 0)
		if err != nil {
			return nil, err
		}
		n.AddOutput(out, id)
	}
	return n, n.Check()
}

// gate adds op over a copy of fanin cut from the parser's arena.
func (p *parser) gate(n *logic.Network, op logic.Op, fanin ...int) int {
	if cap(p.arena)-len(p.arena) < len(fanin) {
		p.arena = make([]int, 0, max(4096, len(fanin)))
	}
	start := len(p.arena)
	p.arena = append(p.arena, fanin...)
	return n.AddGateOwned(op, p.arena[start:len(p.arena):len(p.arena)])
}

// inv returns the cover's shared NOT of node id, adding it on first use.
func (p *parser) inv(n *logic.Network, id int) int {
	if p.invGen[id] == p.gen {
		return p.invOf[id]
	}
	v := p.gate(n, logic.Not, id)
	p.invGen[id], p.invOf[id] = p.gen, v
	return v
}

// buildCover lowers one PLA cover into AND/OR/NOT nodes and returns the id
// of the node computing the cover's output.
func (p *parser) buildCover(n *logic.Network, c *cover, fanin []int) int {
	if len(c.rows) == 0 {
		// An empty cover is constant 0 by BLIF convention.
		return n.AddConst(false)
	}
	onSet := c.rows[0].value == '1'
	if len(c.inputs) == 0 {
		return n.AddConst(onSet)
	}
	// A fresh generation forgets the previous cover's NOT nodes: they are
	// shared across one cover's rows only.
	p.gen++
	if p.gen == 0 {
		clear(p.invGen)
		p.gen = 1
	}
	if size := len(n.Nodes); len(p.invGen) < size {
		p.invGen = append(p.invGen, make([]uint32, size-len(p.invGen))...)
		p.invOf = append(p.invOf, make([]int, size-len(p.invOf))...)
	}
	terms := p.terms[:0]
	for _, r := range c.rows {
		lits := p.lits[:0]
		for i, ch := range r.pattern {
			switch ch {
			case '1':
				lits = append(lits, fanin[i])
			case '0':
				lits = append(lits, p.inv(n, fanin[i]))
			}
		}
		p.lits = lits
		switch len(lits) {
		case 0:
			// Row of all '-': tautology.
			terms = append(terms, n.AddConst(true))
		case 1:
			terms = append(terms, lits[0])
		default:
			terms = append(terms, p.gate(n, logic.And, lits...))
		}
	}
	p.terms = terms
	var root int
	if len(terms) == 1 {
		root = terms[0]
	} else {
		root = p.gate(n, logic.Or, terms...)
	}
	if !onSet {
		root = p.gate(n, logic.Not, root)
	}
	return root
}

// Write renders the network as BLIF. Every node is written as a .names
// block using generated signal names (its own name when it has one).
func Write(w io.Writer, n *logic.Network) error {
	bw := bufio.NewWriter(w)
	name := func(id int) string {
		if nm := n.Nodes[id].Name; nm != "" {
			return nm
		}
		return fmt.Sprintf("n%d", id)
	}
	fmt.Fprintf(bw, ".model %s\n", n.Name)
	fmt.Fprint(bw, ".inputs")
	for _, id := range n.Inputs {
		fmt.Fprintf(bw, " %s", name(id))
	}
	fmt.Fprintln(bw)
	fmt.Fprint(bw, ".outputs")
	outAlias := make(map[string]int)
	for _, out := range n.Outputs {
		fmt.Fprintf(bw, " %s", out.Name)
		outAlias[out.Name] = out.Node
	}
	fmt.Fprintln(bw)
	for id, node := range n.Nodes {
		if node.Op == logic.Input {
			continue
		}
		if err := writeNode(bw, n, id, name); err != nil {
			return err
		}
	}
	// Outputs whose name differs from their driver get a buffer cover.
	outs := make([]string, 0, len(outAlias))
	for o := range outAlias {
		outs = append(outs, o)
	}
	sort.Strings(outs)
	for _, o := range outs {
		drv := name(outAlias[o])
		if drv != o {
			fmt.Fprintf(bw, ".names %s %s\n1 1\n", drv, o)
		}
	}
	fmt.Fprintln(bw, ".end")
	return bw.Flush()
}

func writeNode(w io.Writer, n *logic.Network, id int, name func(int) string) error {
	node := n.Nodes[id]
	fmt.Fprint(w, ".names")
	for _, f := range node.Fanin {
		fmt.Fprintf(w, " %s", name(f))
	}
	fmt.Fprintf(w, " %s\n", name(id))
	k := len(node.Fanin)
	pattern := func(fill byte) []byte {
		b := make([]byte, k)
		for i := range b {
			b[i] = fill
		}
		return b
	}
	switch node.Op {
	case logic.Const0:
		fmt.Fprintln(w, "0") // explicit, though empty cover means 0 too
	case logic.Const1:
		fmt.Fprintln(w, "1")
	case logic.Buf:
		fmt.Fprintln(w, "1 1")
	case logic.Not:
		fmt.Fprintln(w, "0 1")
	case logic.And:
		fmt.Fprintf(w, "%s 1\n", pattern('1'))
	case logic.Nand:
		for i := 0; i < k; i++ {
			row := pattern('-')
			row[i] = '0'
			fmt.Fprintf(w, "%s 1\n", row)
		}
	case logic.Or:
		for i := 0; i < k; i++ {
			row := pattern('-')
			row[i] = '1'
			fmt.Fprintf(w, "%s 1\n", row)
		}
	case logic.Nor:
		fmt.Fprintf(w, "%s 1\n", pattern('0'))
	case logic.Xor, logic.Xnor:
		wantOdd := node.Op == logic.Xor
		for m := 0; m < 1<<k; m++ {
			ones := 0
			row := pattern('0')
			for i := 0; i < k; i++ {
				if m&(1<<i) != 0 {
					row[i] = '1'
					ones++
				}
			}
			if (ones%2 == 1) == wantOdd {
				fmt.Fprintf(w, "%s 1\n", row)
			}
		}
	default:
		return fmt.Errorf("blif: cannot write op %v", node.Op)
	}
	return nil
}
