package cgio

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"text/tabwriter"
	"unicode/utf8"

	"repro/internal/cg"
	"repro/internal/relsched"
)

// WriteOffsets prints the relative schedule as a Table II style table: one
// row per vertex with its anchor set and the offset from each anchor under
// the selected mode. A dash marks anchors outside the vertex's set. Rows
// cover the schedule's own vertices, so a base schedule renders the same
// table after a newer schedule of its delta chain inserted a vertex.
//
// The layout is text/tabwriter's with minwidth 2, padding 2 and flags 0,
// byte for byte while no name holds one of its control bytes (\t \v \n
// \f and 0xff, none of which Parse accepts): every cell, the last of a row
// included, is left-aligned and padded with spaces to two more than its
// column's widest cell, counted in runes. The table is built in two passes
// over the schedule that read only the anchors in each vertex's set: the
// first measures the columns, the second appends the rows into one buffer
// of the measured size, which reaches w in a single Write.
func WriteOffsets(w io.Writer, s *relsched.Schedule, mode relsched.AnchorMode) error {
	g, list, sets := s.G, s.Info.List, s.Info.Sets(mode)
	n, nA := s.NumVertices(), len(list)
	names := make([]string, nA)
	// width[c] is column c's widest cell in runes: the vertex, the anchor
	// set, then one column per anchor. nameW[ai] is the runes of anchor
	// ai's name, cellEnd[ai] where its cell ends in a row of dashes, and
	// members one vertex's anchor set by index.
	ints := make([]int, 4*nA+2)
	width, nameW := ints[:nA+2], ints[nA+2:2*nA+2]
	cellEnd, members := ints[2*nA+2:3*nA+2], ints[3*nA+2:3*nA+2]

	// Pass 1: column widths, and the bytes of multi-byte runes beyond one
	// per rune (extra), so that the buffer is sized exactly.
	width[0], width[1] = len("vertex"), len("anchor set")
	extra := 0
	for ai, a := range list {
		names[ai] = g.Name(a)
		nameW[ai] = utf8.RuneCountInString(names[ai])
		// "σ_" is two runes in three bytes; a dash never widens the column.
		width[2+ai] = 2 + nameW[ai]
		extra += 1 + len(names[ai]) - nameW[ai]
	}
	for v := 0; v < n; v++ {
		id := cg.VertexID(v)
		name := g.Vertex(id).Name
		nw := utf8.RuneCountInString(name)
		width[0] = max(width[0], nw)
		extra += len(name) - nw
		members = sets[v].AppendTo(members[:0])
		set := len("{}") + max(len(members)-1, 0) // braces and commas
		for _, ai := range members {
			set += nameW[ai]
			extra += len(names[ai]) - nameW[ai]
			if list[ai] != id {
				o, _ := s.OffsetAt(ai, id, mode)
				width[2+ai] = max(width[2+ai], decWidth(o))
			}
		}
		width[1] = max(width[1], set)
	}
	rowLen := len("\n")
	for c := range width {
		width[c] += offsetPadding
		rowLen += width[c]
	}
	// dashes is the offset cells of a row whose anchor set is empty, with
	// the newline; a row copies it around the cells of its own set.
	dashes := make([]byte, 0, rowLen-width[0]-width[1])
	for ai := range list {
		dashes = padTo(append(dashes, '-'), width[2+ai]-1)
		cellEnd[ai] = len(dashes)
	}
	dashes = append(dashes, '\n')

	// Pass 2: the header and one row per vertex.
	buf := make([]byte, 0, (n+1)*rowLen+extra)
	buf = padTo(append(buf, "vertex"...), width[0]-len("vertex"))
	buf = padTo(append(buf, "anchor set"...), width[1]-len("anchor set"))
	for ai := range list {
		buf = append(append(buf, "σ_"...), names[ai]...)
		buf = padTo(buf, width[2+ai]-2-nameW[ai])
	}
	buf = append(buf, '\n')
	for v := 0; v < n; v++ {
		id := cg.VertexID(v)
		name := g.Vertex(id).Name
		buf = padTo(append(buf, name...), width[0]-utf8.RuneCountInString(name))
		members = sets[v].AppendTo(members[:0])
		buf = append(buf, '{')
		set := len("{}")
		for i, ai := range members {
			if i > 0 {
				buf = append(buf, ',')
				set++
			}
			buf = append(buf, names[ai]...)
			set += nameW[ai]
		}
		buf = padTo(append(buf, '}'), width[1]-set)
		from := 0
		for _, ai := range members {
			if list[ai] == id {
				continue
			}
			o, _ := s.OffsetAt(ai, id, mode)
			buf = append(buf, dashes[from:cellEnd[ai]-width[2+ai]]...)
			cell := len(buf)
			buf = strconv.AppendInt(buf, int64(o), 10)
			buf = padTo(buf, width[2+ai]-(len(buf)-cell))
			from = cellEnd[ai]
		}
		buf = append(buf, dashes[from:]...)
	}
	_, err := w.Write(buf)
	return err
}

// offsetPadding is the spaces WriteOffsets adds to a column's widest cell.
const offsetPadding = 2

// spaces is the run padTo copies from.
const spaces = "                                                                "

// padTo appends n spaces to buf.
func padTo(buf []byte, n int) []byte {
	for n > len(spaces) {
		buf = append(buf, spaces...)
		n -= len(spaces)
	}
	return append(buf, spaces[:n]...)
}

// decWidth returns the length of x in decimal.
func decWidth(x int) int {
	if x < 0 {
		return len(strconv.Itoa(x))
	}
	w := 1
	for ; x >= 10; x /= 10 {
		w++
	}
	return w
}

// WriteTrace prints a scheduling trace in the style of the paper's
// Fig. 10: one row per vertex, one column pair (σ per anchor) per phase.
func WriteTrace(w io.Writer, g *cg.Graph, tr *relsched.Trace) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "vertex\t")
	for _, ph := range tr.Phases {
		kind := "compute"
		if ph.Readjust {
			kind = "readjust"
		}
		fmt.Fprintf(tw, "it%d %s\t", ph.Iteration, kind)
	}
	fmt.Fprintln(tw)
	for _, v := range g.Vertices() {
		fmt.Fprintf(tw, "%s\t", v.Name)
		for _, ph := range tr.Phases {
			cells := make([]string, 0, len(tr.Info.List))
			for ai, a := range tr.Info.List {
				o := ph.Off[ai][v.ID]
				if o == relsched.NoOffset || a == v.ID {
					cells = append(cells, "-")
				} else {
					cells = append(cells, fmt.Sprintf("%d", o))
				}
			}
			fmt.Fprintf(tw, "%s\t", strings.Join(cells, ","))
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// WriteStartTimes prints the concrete start times of every vertex for a
// delay profile.
func WriteStartTimes(w io.Writer, g *cg.Graph, p relsched.DelayProfile, t []int) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "vertex\tdelay\tT(v)\n")
	for _, v := range g.Vertices() {
		d := v.Delay.String()
		if !v.Delay.Bounded() {
			d = fmt.Sprintf("δ=%d", p[v.ID])
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\n", v.Name, d, t[v.ID])
	}
	return tw.Flush()
}
