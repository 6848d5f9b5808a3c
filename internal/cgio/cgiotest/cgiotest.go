// Package cgiotest holds the test oracles of cgio, the way
// relsched.ReferenceCompute pins schedules. ReferenceOffsets renders the
// Table II table through text/tabwriter, as cgio.WriteOffsets once did,
// so that tests pin the two-pass renderer to it byte for byte.
// ReferenceParse reads the text format line by line through a
// bufio.Scanner and strings.Fields, as cgio.Parse once did. Only tests
// import it.
package cgiotest

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"

	"repro/internal/relsched"
)

// ReferenceOffsets prints the relative schedule as a Table II style table
// through a tabwriter (minwidth 2, padding 2, flags 0), one cell at a
// time: the layout cgio.WriteOffsets must reproduce. Rows cover the
// schedule's own vertices.
func ReferenceOffsets(w io.Writer, s *relsched.Schedule, mode relsched.AnchorMode) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	g := s.G
	fmt.Fprintf(tw, "vertex\tanchor set\t")
	for _, a := range s.Info.List {
		fmt.Fprintf(tw, "σ_%s\t", g.Name(a))
	}
	fmt.Fprintln(tw)
	for _, v := range g.Vertices()[:s.NumVertices()] {
		set := s.Info.FullSet(v.ID)
		switch mode {
		case relsched.RelevantAnchors:
			set = s.Info.RelevantSet(v.ID)
		case relsched.IrredundantAnchors:
			set = s.Info.IrredundantSet(v.ID)
		}
		fmt.Fprintf(tw, "%s\t{%s}\t", v.Name, strings.Join(g.Names(set), ","))
		for _, a := range s.Info.List {
			if o, ok := s.Offset(a, v.ID, mode); ok && a != v.ID {
				fmt.Fprintf(tw, "%d\t", o)
			} else {
				fmt.Fprintf(tw, "-\t")
			}
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// ReferenceString is ReferenceOffsets into a string.
func ReferenceString(s *relsched.Schedule, mode relsched.AnchorMode) string {
	var b strings.Builder
	if err := ReferenceOffsets(&b, s, mode); err != nil {
		panic(err) // a strings.Builder never fails a write
	}
	return b.String()
}
