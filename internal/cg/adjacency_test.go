package cg

import (
	"slices"
	"testing"
	"unsafe"
)

// adjGraph builds a small polar graph with an anchor, a minimum and a
// maximum constraint, reading its adjacency halfway through the build
// the way MakeWellPosed reads its clone between serialization edges.
func adjGraph() *Graph {
	g := New()
	a := g.AddOp("a", UnboundedDelay())
	b := g.AddOp("b", Cycles(2))
	c := g.AddOp("c", Cycles(1))
	g.AddSeq(g.Source(), a)
	g.AddSeq(g.Source(), b)
	g.AddSeq(a, c)
	_ = g.OutEdges(a) // lays the adjacency out before the build ends
	d := g.AddOp("d", Cycles(3))
	sink := g.AddOp("sink", Cycles(0))
	g.AddSeq(b, c)
	g.AddSeq(c, d)
	g.AddSeq(d, sink)
	g.AddMin(g.Source(), d, 2)
	g.AddMin(a, d, 1)
	g.AddMax(b, d, 9)
	return g
}

// checkFlat reports whether every list is a view with cap == len into
// one backing array, laid out in vertex order and covering m indices.
func checkFlat(t *testing.T, what string, lists [][]int, m int) {
	t.Helper()
	var base uintptr
	off := 0
	for v, l := range lists {
		if cap(l) != len(l) {
			t.Errorf("%s[%d]: cap %d, len %d", what, v, cap(l), len(l))
		}
		if len(l) == 0 {
			continue
		}
		p := uintptr(unsafe.Pointer(unsafe.SliceData(l)))
		if base == 0 {
			base = p
		}
		if p != base+uintptr(off)*unsafe.Sizeof(int(0)) {
			t.Errorf("%s[%d] is not the next view into one backing array", what, v)
		}
		off += len(l)
	}
	if off != m {
		t.Errorf("%s covers %d edge indices, want %d", what, off, m)
	}
}

// TestFrozenAdjacencyFlat pins the adjacency layout: after Freeze, from
// a builder or from Clone, every out[v] and in[v] is a cap == len view
// into one backing array per direction, in edge-index order; an edit
// after Freeze appends to one vertex's list without writing into a
// neighbour's range, also into the slot a removal freed.
func TestFrozenAdjacencyFlat(t *testing.T) {
	g := adjGraph().MustFreeze()
	c := g.Clone()
	if c.out != nil {
		t.Error("Clone copied the adjacency")
	}
	c.MustFreeze()
	for name, h := range map[string]*Graph{"built": g, "clone": c} {
		checkFlat(t, name+" out", h.out, h.M())
		checkFlat(t, name+" in", h.in, h.M())
		for v := range h.out {
			if !slices.IsSorted(h.out[v]) || !slices.IsSorted(h.in[v]) {
				t.Errorf("%s: vertex %d's adjacency is not in edge-index order", name, v)
			}
		}
	}

	snapshot := func() (out, in [][]int) {
		for v := range g.out {
			out = append(out, slices.Clone(g.out[v]))
			in = append(in, slices.Clone(g.in[v]))
		}
		return out, in
	}
	a, d := g.VertexByName("a"), g.VertexByName("d")
	// Remove the constraint a→d (a keeps its a→c edge), so a's list
	// shrinks; the first addition then appends into the slot it freed,
	// the second past its end.
	ri := slices.IndexFunc(g.Edges(), func(e Edge) bool { return e.From == a && e.To == d })
	if _, err := g.ApplyEdit(RemoveEdgeEdit(ri)); err != nil {
		t.Fatal(err)
	}
	for _, ed := range []Edit{AddMinEdit(a, d, 4), AddMinEdit(a, g.VertexByName("sink"), 1)} {
		out0, in0 := snapshot()
		dl, err := g.ApplyEdit(ed)
		if err != nil {
			t.Fatal(err)
		}
		for v := range g.out {
			wantOut, wantIn := out0[v], in0[v]
			if VertexID(v) == dl.Edge.From {
				wantOut = append(wantOut, dl.EdgeIndex)
			}
			if VertexID(v) == dl.Edge.To {
				wantIn = append(wantIn, dl.EdgeIndex)
			}
			if !slices.Equal(g.out[v], wantOut) || !slices.Equal(g.in[v], wantIn) {
				t.Errorf("after %v: vertex %d has out %v in %v, want out %v in %v",
					dl.Edge, v, g.out[v], g.in[v], wantOut, wantIn)
			}
		}
	}
	// Every edge sits once in its tail's out list and its head's in list.
	for i, e := range g.Edges() {
		if !slices.Contains(g.out[e.From], i) || !slices.Contains(g.in[e.To], i) {
			t.Errorf("edge %d (%v) is missing from the adjacency", i, e)
		}
	}
	n := 0
	for v := range g.out {
		n += len(g.out[v]) + len(g.in[v])
	}
	if n != 2*g.M() {
		t.Errorf("adjacency holds %d indices, want %d", n, 2*g.M())
	}
}
