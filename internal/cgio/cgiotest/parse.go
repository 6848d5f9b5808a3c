package cgiotest

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/cg"
	"repro/internal/cgio"
)

// ReferenceParse reads a constraint graph the way cgio.Parse once did:
// a bufio.Scanner hands over one string per line, and strings.Fields
// splits it. It is the oracle cgio.Parse must agree with: both refuse an
// input with the same error text, except that a line of 64 KiB or more
// stops ReferenceParse with bufio.ErrTooLong, or both accept it with the
// same cgio.Write text.
func ReferenceParse(r io.Reader) (*cg.Graph, error) {
	g := cg.New()
	byName := map[string]cg.VertexID{"v0": g.Source()}
	lookup := func(line int, name string) (cg.VertexID, error) {
		v, ok := byName[name]
		if !ok {
			return 0, &cgio.ParseError{Line: line, Msg: fmt.Sprintf("unknown vertex %q", name)}
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
				return nil, &cgio.ParseError{Line: lineNo, Msg: "vertex wants: vertex <name> unbounded|delay=<n>"}
			}
			name := fields[1]
			if !utf8.ValidString(name) {
				return nil, &cgio.ParseError{Line: lineNo, Msg: fmt.Sprintf("vertex name %q is not valid UTF-8", name)}
			}
			if _, dup := byName[name]; dup {
				return nil, &cgio.ParseError{Line: lineNo, Msg: fmt.Sprintf("duplicate vertex %q", name)}
			}
			var d cg.Delay
			switch {
			case fields[2] == "unbounded":
				d = cg.UnboundedDelay()
			case strings.HasPrefix(fields[2], "delay="):
				n, err := strconv.Atoi(strings.TrimPrefix(fields[2], "delay="))
				if err != nil || n < 0 {
					return nil, &cgio.ParseError{Line: lineNo, Msg: fmt.Sprintf("bad delay %q", fields[2])}
				}
				d = cg.Cycles(n)
			default:
				return nil, &cgio.ParseError{Line: lineNo, Msg: fmt.Sprintf("bad delay spec %q", fields[2])}
			}
			byName[name] = g.AddOp(name, d)
		case "seq", "min", "max":
			want := 3
			if fields[0] != "seq" {
				want = 4
			}
			if len(fields) != want {
				return nil, &cgio.ParseError{Line: lineNo, Msg: fmt.Sprintf("%s wants %d operands", fields[0], want-1)}
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
				return nil, &cgio.ParseError{Line: lineNo, Msg: fmt.Sprintf("%s from %q to itself", fields[0], fields[1])}
			}
			switch fields[0] {
			case "seq":
				g.AddSeq(from, to)
			case "min":
				l, err := strconv.Atoi(fields[3])
				if err != nil || l < 0 {
					return nil, &cgio.ParseError{Line: lineNo, Msg: fmt.Sprintf("bad bound %q", fields[3])}
				}
				g.AddMin(from, to, l)
			case "max":
				u, err := strconv.Atoi(fields[3])
				if err != nil || u < 0 {
					return nil, &cgio.ParseError{Line: lineNo, Msg: fmt.Sprintf("bad bound %q", fields[3])}
				}
				g.AddMax(from, to, u)
			}
		default:
			return nil, &cgio.ParseError{Line: lineNo, Msg: fmt.Sprintf("unknown directive %q", fields[0])}
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
