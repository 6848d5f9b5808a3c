package cg_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"repro/internal/cg"
	"repro/internal/designs"
	"repro/internal/randgraph"
)

// adjGraph builds a small polar graph with an anchor, a minimum and a
// maximum constraint, reading its adjacency halfway through the build
// the way MakeWellPosed reads its clone between serialization edges.
func adjGraph() *cg.Graph {
	g := cg.New()
	a := g.AddOp("a", cg.UnboundedDelay())
	b := g.AddOp("b", cg.Cycles(2))
	c := g.AddOp("c", cg.Cycles(1))
	g.AddSeq(g.Source(), a)
	g.AddSeq(g.Source(), b)
	g.AddSeq(a, c)
	_ = g.OutEdges(a) // lays the adjacency out before the build ends
	d := g.AddOp("d", cg.Cycles(3))
	sink := g.AddOp("sink", cg.Cycles(0))
	g.AddSeq(b, c)
	g.AddSeq(c, d)
	g.AddSeq(d, sink)
	g.AddMin(g.Source(), d, 2)
	g.AddMin(a, d, 1)
	g.AddMax(b, d, 9)
	return g
}

// checkCSR reports whether start and idx are the CSR of g's edges keyed
// by end (the tail for out, the head for in): the starts run from 0 to
// |E| without decreasing, and every edge index appears once, in its
// vertex's range, with each range in edge-index order.
func checkCSR(t *testing.T, what string, g *cg.Graph, start, idx []int32, end func(cg.Edge) cg.VertexID) {
	t.Helper()
	if len(start) != g.N()+1 || len(idx) != g.M() {
		t.Fatalf("%s: %d starts and %d indices, want %d and %d", what, len(start), len(idx), g.N()+1, g.M())
	}
	if start[0] != 0 || start[g.N()] != int32(g.M()) {
		t.Errorf("%s: starts run from %d to %d, want 0 to %d", what, start[0], start[g.N()], g.M())
	}
	seen := make([]bool, g.M())
	for v := 0; v < g.N(); v++ {
		if start[v] > start[v+1] {
			t.Fatalf("%s: start[%d] = %d > start[%d] = %d", what, v, start[v], v+1, start[v+1])
		}
		r := idx[start[v]:start[v+1]]
		if !slices.IsSorted(r) {
			t.Errorf("%s: vertex %d's range %v is not in edge-index order", what, v, r)
		}
		for _, i := range r {
			if seen[i] {
				t.Errorf("%s: edge %d appears twice", what, i)
			}
			seen[i] = true
			if end(g.Edge(int(i))) != cg.VertexID(v) {
				t.Errorf("%s: edge %d (%v) is in vertex %d's range", what, i, g.Edge(int(i)), v)
			}
		}
	}
}

// TestFrozenAdjacencyFlat pins the adjacency layout: after Freeze, from
// a builder that read its adjacency halfway or from Clone, the adjacency
// is one int32 CSR per direction with no list headers, and OutEdges and
// InEdges are views of it; the first edit after Freeze carves headers,
// and an edit appends to one vertex's list without writing into a
// neighbour's range, also into the slot a removal freed.
func TestFrozenAdjacencyFlat(t *testing.T) {
	g := adjGraph().MustFreeze()
	c := g.Clone()
	if s, _, _, _, _ := cg.Adjacency(c); s != nil {
		t.Error("Clone copied the adjacency")
	}
	c.MustFreeze()
	for name, h := range map[string]*cg.Graph{"built": g, "clone": c} {
		outStart, outIdx, inStart, inIdx, headers := cg.Adjacency(h)
		if headers {
			t.Errorf("%s: a frozen graph keeps list headers", name)
		}
		checkCSR(t, name+" out", h, outStart, outIdx, func(e cg.Edge) cg.VertexID { return e.From })
		checkCSR(t, name+" in", h, inStart, inIdx, func(e cg.Edge) cg.VertexID { return e.To })
		for v := 0; v < h.N(); v++ {
			id := cg.VertexID(v)
			if !slices.Equal(h.OutEdges(id), outIdx[outStart[v]:outStart[v+1]]) ||
				!slices.Equal(h.InEdges(id), inIdx[inStart[v]:inStart[v+1]]) {
				t.Errorf("%s: vertex %d's OutEdges/InEdges are not its CSR ranges", name, v)
			}
		}
	}

	snapshot := func() (out, in [][]int32) {
		for v := 0; v < g.N(); v++ {
			out = append(out, slices.Clone(g.OutEdges(cg.VertexID(v))))
			in = append(in, slices.Clone(g.InEdges(cg.VertexID(v))))
		}
		return out, in
	}
	a, d := g.VertexByName("a"), g.VertexByName("d")
	// Remove the constraint a→d (a keeps its a→c edge), so a's list
	// shrinks; the first addition then appends into the slot it freed,
	// the second past its end.
	ri := slices.IndexFunc(g.Edges(), func(e cg.Edge) bool { return e.From == a && e.To == d })
	if _, err := g.ApplyEdit(cg.RemoveEdgeEdit(ri)); err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, headers := cg.Adjacency(g); !headers {
		t.Error("an edit left the frozen graph without list headers")
	}
	for _, ed := range []cg.Edit{cg.AddMinEdit(a, d, 4), cg.AddMinEdit(a, g.VertexByName("sink"), 1)} {
		out0, in0 := snapshot()
		dl, err := g.ApplyEdit(ed)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < g.N(); v++ {
			wantOut, wantIn := out0[v], in0[v]
			if cg.VertexID(v) == dl.Edge.From {
				wantOut = append(wantOut, int32(dl.EdgeIndex))
			}
			if cg.VertexID(v) == dl.Edge.To {
				wantIn = append(wantIn, int32(dl.EdgeIndex))
			}
			id := cg.VertexID(v)
			if !slices.Equal(g.OutEdges(id), wantOut) || !slices.Equal(g.InEdges(id), wantIn) {
				t.Errorf("after %v: vertex %d has out %v in %v, want out %v in %v",
					dl.Edge, v, g.OutEdges(id), g.InEdges(id), wantOut, wantIn)
			}
		}
	}
	checkAdjacency(t, "edited", g)
}

// layoutGraphs returns, by sorted label, every constraint graph of the
// eight designs and seeded randgraph graphs of the given sizes, frozen.
func layoutGraphs(t *testing.T, sizes ...int) ([]string, map[string]*cg.Graph) {
	t.Helper()
	graphs := make(map[string]*cg.Graph)
	for _, d := range designs.All() {
		r, err := d.Synthesize()
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		for i, name := range r.Order {
			graphs[fmt.Sprintf("%s/%d:%s", d.Name, i, name)] = r.Graphs[name].CG.MustFreeze()
		}
	}
	for _, n := range sizes {
		cfg := randgraph.Default()
		cfg.N, cfg.MinConstraints, cfg.MaxConstraints = n, n/10, n/10
		for seed := int64(0); seed < 3; seed++ {
			graphs[fmt.Sprintf("N=%d/seed=%d", n, seed)] = randgraph.Generate(cfg, rand.New(rand.NewSource(seed)))
		}
	}
	labels := make([]string, 0, len(graphs))
	for l := range graphs {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	return labels, graphs
}

// checkAdjacency compares OutEdges and InEdges of every vertex with the
// lists rebuilt from the edge list. Edits leave a list out of edge-index
// order (a removal renumbers the last edge in place, a revert appends),
// so each list is compared sorted.
func checkAdjacency(t *testing.T, what string, g *cg.Graph) {
	t.Helper()
	out := make([][]int32, g.N())
	in := make([][]int32, g.N())
	for i, e := range g.Edges() {
		out[e.From] = append(out[e.From], int32(i))
		in[e.To] = append(in[e.To], int32(i))
	}
	for v := 0; v < g.N(); v++ {
		id := cg.VertexID(v)
		gotOut, gotIn := slices.Clone(g.OutEdges(id)), slices.Clone(g.InEdges(id))
		slices.Sort(gotOut)
		slices.Sort(gotIn)
		if !slices.Equal(gotOut, out[v]) || !slices.Equal(gotIn, in[v]) {
			t.Fatalf("%s: vertex %d has out %v in %v, the edge list gives out %v in %v",
				what, v, gotOut, gotIn, out[v], in[v])
		}
	}
}

// TestEditedAdjacencyMatchesEdgeList runs seeded ApplyEdit/RevertDelta
// sequences — added minimum and maximum constraints, removals and
// operation inserts, with reverts between them — on a fork of every
// design graph and of frozen randgraph graphs of N=40 and N=200, and
// after every step compares the adjacency with lists rebuilt from the
// edge list. A full unwind must restore the fork's edge list.
func TestEditedAdjacencyMatchesEdgeList(t *testing.T) {
	labels, graphs := layoutGraphs(t, 40, 200)
	rng := rand.New(rand.NewSource(29))
	accepted := 0
	for _, label := range labels {
		g := graphs[label].Clone().MustFreeze()
		edges0 := slices.Clone(g.Edges())
		checkAdjacency(t, label, g)
		var deltas []cg.Delta
		for step := 0; step < 60; step++ {
			topo := g.TopoForward()
			i, j := rng.Intn(len(topo)), rng.Intn(len(topo))
			if i > j {
				i, j = j, i
			}
			u, v := topo[i], topo[j]
			var ed cg.Edit
			switch rng.Intn(4) {
			case 0:
				ed = cg.AddMinEdit(u, v, rng.Intn(5))
			case 1:
				ed = cg.AddMaxEdit(u, v, rng.Intn(9))
			case 2:
				ed = cg.RemoveEdgeEdit(rng.Intn(g.M()))
			case 3:
				ed = cg.InsertOpEdit("", cg.Cycles(rng.Intn(3)), u, v)
			}
			what := fmt.Sprintf("%s step %d (%v)", label, step, ed.Op)
			if d, err := g.ApplyEdit(ed); err == nil {
				deltas = append(deltas, d)
				accepted++
			}
			checkAdjacency(t, what, g)
			if len(deltas) > 0 && rng.Intn(4) == 0 {
				if err := g.RevertDelta(deltas[len(deltas)-1]); err != nil {
					t.Fatalf("%s: revert: %v", what, err)
				}
				deltas = deltas[:len(deltas)-1]
				checkAdjacency(t, what+" reverted", g)
			}
		}
		for k := len(deltas) - 1; k >= 0; k-- {
			if err := g.RevertDelta(deltas[k]); err != nil {
				t.Fatalf("%s: unwind %d: %v", label, k, err)
			}
		}
		checkAdjacency(t, label+" unwound", g)
		if !slices.Equal(g.Edges(), edges0) {
			t.Fatalf("%s: the unwound edge list differs from the fork's", label)
		}
	}
	if accepted < 20*len(labels) {
		t.Errorf("%d edits accepted over %d graphs, want at least 20 a graph", accepted, len(labels))
	}
}

// TestFrozenGraphBytes pins what a frozen graph keeps: a Vertex and an
// Edge take 32 bytes each, and the vertex, edge, adjacency, sweep,
// topological order and rank arrays at most 52·|V| + 57·|E| bytes, plus
// the closing entry of each start array, on every design graph and on
// randgraph graphs of N=40, 200 and 1000. Per vertex that is the Vertex,
// two int32 starts, the topological order and the rank; per edge the
// Edge, two int32 adjacency indices and a forward sweep entry (two int32
// endpoints, the weight and the unbounded flag). It counts from lengths,
// not from the heap, so it holds under -race.
func TestFrozenGraphBytes(t *testing.T) {
	if s := unsafe.Sizeof(cg.Vertex{}); s != 32 {
		t.Errorf("a Vertex takes %d bytes, want 32", s)
	}
	if s := unsafe.Sizeof(cg.Edge{}); s != 32 {
		t.Errorf("an Edge takes %d bytes, want 32", s)
	}
	labels, graphs := layoutGraphs(t, 40, 200, 1000)
	for _, label := range labels {
		g := graphs[label]
		bound := 52*g.N() + 57*g.M() + 2*4
		if got := cg.KeptBytes(g); got > bound {
			t.Errorf("%s (|V| = %d, |E| = %d): %d bytes, bound %d", label, g.N(), g.M(), got, bound)
		}
	}
}
