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
	"unicode"
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

// maxLine is the longest line Parse accepts, in bytes without its '\n':
// the limit a bufio.Scanner's default buffer once put on the format.
const maxLine = bufio.MaxScanTokenSize - 1

// Parse reads a constraint graph in the text format. The returned graph is
// frozen (validated polar, forward-acyclic).
func Parse(r io.Reader) (*cg.Graph, error) {
	src, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return parse(string(src))
}

// ParseString is Parse over a string. The graph keeps no reference to s:
// vertex names are copied into one string of their own.
func ParseString(s string) (*cg.Graph, error) {
	return parse(s)
}

// ParseFile reads a constraint graph from the named file in the text
// format. The relsched batch subcommand uses it to load job manifests.
func ParseFile(path string) (*cg.Graph, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	g, err := parse(string(src))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

// parse reads src in two passes over its bytes. The first counts the
// vertex and edge directives and the bytes of the vertex names, so the
// graph's arrays and the one string that holds every name are allocated
// once, at their exact size; the second builds the graph.
func parse(src string) (*cg.Graph, error) {
	var f [4]string
	ops, edges, nameBytes := 0, 0, 0
	for rest := src; rest != ""; {
		var line string
		line, rest = nextLine(rest)
		switch n := fields(line, f[:2]); {
		case n == 0:
		case f[0] == "vertex":
			ops++
			if n > 1 {
				nameBytes += len(f[1])
			}
		case f[0] == "seq" || f[0] == "min" || f[0] == "max":
			edges++
		}
	}

	g := cg.NewSized(ops, edges)
	byName := make(map[string]cg.VertexID, ops+1)
	byName["v0"] = g.Source()
	lookup := func(line int, name string) (cg.VertexID, error) {
		v, ok := byName[name]
		if !ok {
			return 0, &ParseError{line, fmt.Sprintf("unknown vertex %q", name)}
		}
		return v, nil
	}
	// names holds every vertex name, each a substring of its one buffer:
	// it was grown to their total length, so writes never move it.
	var names strings.Builder
	names.Grow(nameBytes)

	lineNo := 0
	for rest := src; rest != ""; {
		var line string
		line, rest = nextLine(rest)
		lineNo++
		if len(line) > maxLine {
			return nil, &ParseError{lineNo, fmt.Sprintf("line longer than %d bytes", maxLine)}
		}
		n := fields(line, f[:])
		if n == 0 {
			continue
		}
		switch f[0] {
		case "graph":
			// Header; the name is informational.
		case "vertex":
			if n != 3 {
				return nil, &ParseError{lineNo, "vertex wants: vertex <name> unbounded|delay=<n>"}
			}
			name := f[1]
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
			case f[2] == "unbounded":
				d = cg.UnboundedDelay()
			case strings.HasPrefix(f[2], "delay="):
				c, err := strconv.Atoi(f[2][len("delay="):])
				if err != nil || c < 0 {
					return nil, &ParseError{lineNo, fmt.Sprintf("bad delay %q", f[2])}
				}
				d = cg.Cycles(c)
			default:
				return nil, &ParseError{lineNo, fmt.Sprintf("bad delay spec %q", f[2])}
			}
			at := names.Len()
			names.WriteString(name)
			name = names.String()[at:]
			byName[name] = g.AddOp(name, d)
		case "seq", "min", "max":
			want := 3
			if f[0] != "seq" {
				want = 4
			}
			if n != want {
				return nil, &ParseError{lineNo, fmt.Sprintf("%s wants %d operands", f[0], want-1)}
			}
			from, err := lookup(lineNo, f[1])
			if err != nil {
				return nil, err
			}
			to, err := lookup(lineNo, f[2])
			if err != nil {
				return nil, err
			}
			if from == to {
				return nil, &ParseError{lineNo, fmt.Sprintf("%s from %q to itself", f[0], f[1])}
			}
			switch f[0] {
			case "seq":
				g.AddSeq(from, to)
			case "min":
				l, err := strconv.Atoi(f[3])
				if err != nil || l < 0 {
					return nil, &ParseError{lineNo, fmt.Sprintf("bad bound %q", f[3])}
				}
				g.AddMin(from, to, l)
			case "max":
				u, err := strconv.Atoi(f[3])
				if err != nil || u < 0 {
					return nil, &ParseError{lineNo, fmt.Sprintf("bad bound %q", f[3])}
				}
				g.AddMax(from, to, u)
			}
		default:
			return nil, &ParseError{lineNo, fmt.Sprintf("unknown directive %q", f[0])}
		}
	}
	if err := g.Freeze(); err != nil {
		return nil, err
	}
	return g, nil
}

// nextLine splits the first line, without its '\n', off s.
func nextLine(s string) (line, rest string) {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i], s[i+1:]
	}
	return s, ""
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// fields splits line, up to its first '#', at white space the way
// strings.Fields does, Unicode spaces included. It stores the first
// len(f) fields in f and returns how many the line has, counting no
// further than len(f)+1.
func fields(line string, f []string) int {
	if i := strings.IndexByte(line, '#'); i >= 0 {
		line = line[:i]
	}
	n, start := 0, -1
	for i := 0; i < len(line); {
		size, space := 1, false
		if c := line[i]; c < utf8.RuneSelf {
			space = asciiSpace[c]
		} else {
			var r rune
			r, size = utf8.DecodeRuneInString(line[i:])
			space = unicode.IsSpace(r)
		}
		switch {
		case space && start >= 0:
			if n == len(f) {
				return n + 1
			}
			f[n] = line[start:i]
			n++
			start = -1
		case !space && start < 0:
			start = i
		}
		i += size
	}
	if start >= 0 {
		if n < len(f) {
			f[n] = line[start:]
		}
		n++
	}
	return n
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
