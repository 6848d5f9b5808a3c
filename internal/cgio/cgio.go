// Package cgio provides a small line-oriented text format for constraint
// graphs, plus table printers for relative schedules and scheduling traces
// in the style of the paper's Table II and Fig. 10.
//
// The graph format, one directive per line ('#' starts a comment):
//
//	graph <name>              optional header
//	vertex <name> unbounded   an unbounded-delay operation
//	vertex <name> delay=<n>   a bounded operation taking n cycles
//	seq <from> <to>           sequencing dependency (weight δ(from))
//	min <from> <to> <l>       minimum timing constraint σ(to) ≥ σ(from)+l
//	max <from> <to> <u>       maximum timing constraint σ(to) ≤ σ(from)+u
//
// The source vertex v0 exists implicitly; vertices must be declared before
// they are referenced. Names are valid UTF-8 without whitespace or '#', and
// no directive joins a vertex to itself.
package cgio

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/cg"
)

// ParseError reports a syntax or semantic error with its line number.
type ParseError struct {
	Line int
	Msg  string
}

// Error implements the error interface.
func (e *ParseError) Error() string {
	return fmt.Sprintf("cgio: line %d: %s", e.Line, e.Msg)
}

// Parse reads a constraint graph in the text format. The returned graph is
// frozen (validated polar, forward-acyclic).
func Parse(r io.Reader) (*cg.Graph, error) {
	g := cg.New()
	byName := map[string]cg.VertexID{"v0": g.Source()}
	lookup := func(line int, name string) (cg.VertexID, error) {
		v, ok := byName[name]
		if !ok {
			return 0, &ParseError{line, fmt.Sprintf("unknown vertex %q", name)}
		}
		return v, nil
	}

	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "graph":
			// Header; the name is informational.
		case "vertex":
			if len(fields) != 3 {
				return nil, &ParseError{lineNo, "vertex wants: vertex <name> unbounded|delay=<n>"}
			}
			name := fields[1]
			// Names reach tables and JSON; 0xff and other bytes that are
			// not UTF-8 would misalign the first and turn into U+FFFD in
			// the second, where no edit could name the vertex back.
			if !utf8.ValidString(name) {
				return nil, &ParseError{lineNo, fmt.Sprintf("vertex name %q is not valid UTF-8", name)}
			}
			if _, dup := byName[name]; dup {
				return nil, &ParseError{lineNo, fmt.Sprintf("duplicate vertex %q", name)}
			}
			var d cg.Delay
			switch {
			case fields[2] == "unbounded":
				d = cg.UnboundedDelay()
			case strings.HasPrefix(fields[2], "delay="):
				n, err := strconv.Atoi(strings.TrimPrefix(fields[2], "delay="))
				if err != nil || n < 0 {
					return nil, &ParseError{lineNo, fmt.Sprintf("bad delay %q", fields[2])}
				}
				d = cg.Cycles(n)
			default:
				return nil, &ParseError{lineNo, fmt.Sprintf("bad delay spec %q", fields[2])}
			}
			byName[name] = g.AddOp(name, d)
		case "seq", "min", "max":
			want := 3
			if fields[0] != "seq" {
				want = 4
			}
			if len(fields) != want {
				return nil, &ParseError{lineNo, fmt.Sprintf("%s wants %d operands", fields[0], want-1)}
			}
			from, err := lookup(lineNo, fields[1])
			if err != nil {
				return nil, err
			}
			to, err := lookup(lineNo, fields[2])
			if err != nil {
				return nil, err
			}
			if from == to {
				return nil, &ParseError{lineNo, fmt.Sprintf("%s from %q to itself", fields[0], fields[1])}
			}
			switch fields[0] {
			case "seq":
				g.AddSeq(from, to)
			case "min":
				l, err := strconv.Atoi(fields[3])
				if err != nil || l < 0 {
					return nil, &ParseError{lineNo, fmt.Sprintf("bad bound %q", fields[3])}
				}
				g.AddMin(from, to, l)
			case "max":
				u, err := strconv.Atoi(fields[3])
				if err != nil || u < 0 {
					return nil, &ParseError{lineNo, fmt.Sprintf("bad bound %q", fields[3])}
				}
				g.AddMax(from, to, u)
			}
		default:
			return nil, &ParseError{lineNo, fmt.Sprintf("unknown directive %q", fields[0])}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := g.Freeze(); err != nil {
		return nil, err
	}
	return g, nil
}

// ParseString is Parse over a string.
func ParseString(s string) (*cg.Graph, error) {
	return Parse(strings.NewReader(s))
}

// ParseFile reads a constraint graph from the named file in the text
// format. The relsched batch subcommand uses it to load job manifests.
func ParseFile(path string) (*cg.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err := Parse(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

// Write renders the graph in the text format, one declaration per line.
// Serialization edges are written as seq directives with a trailing
// comment, since the format reconstructs their weight from the tail delay.
func Write(w io.Writer, g *cg.Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "graph g%d\n", g.N())
	for _, v := range g.Vertices() {
		if v.ID == g.Source() {
			continue
		}
		if v.Delay.Bounded() {
			fmt.Fprintf(bw, "vertex %s delay=%d\n", v.Name, v.Delay.Value())
		} else {
			fmt.Fprintf(bw, "vertex %s unbounded\n", v.Name)
		}
	}
	for _, e := range g.Edges() {
		switch e.Kind {
		case cg.Sequencing:
			fmt.Fprintf(bw, "seq %s %s\n", g.Name(e.From), g.Name(e.To))
		case cg.Serialization:
			fmt.Fprintf(bw, "seq %s %s # serialization\n", g.Name(e.From), g.Name(e.To))
		case cg.MinConstraint:
			fmt.Fprintf(bw, "min %s %s %d\n", g.Name(e.From), g.Name(e.To), e.Weight)
		case cg.MaxConstraint:
			// AddMax(from,to,u) stored the edge reversed with weight -u.
			fmt.Fprintf(bw, "max %s %s %d\n", g.Name(e.To), g.Name(e.From), -e.Weight)
		}
	}
	return bw.Flush()
}
