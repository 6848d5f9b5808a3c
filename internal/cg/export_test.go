package cg

import "unsafe"

// Adjacency returns g's int32 CSR adjacency arrays, and whether list
// headers (see lists) stand in for them.
func Adjacency(g *Graph) (outStart, outIdx, inStart, inIdx []int32, headers bool) {
	return g.outStart, g.outIdx, g.inStart, g.inIdx, len(g.out) > 0
}

// KeptBytes counts, from lengths, the bytes g keeps in its vertex, edge,
// adjacency, sweep (CSR), topological order and rank arrays.
func KeptBytes(g *Graph) int {
	n := len(g.vertices)*int(unsafe.Sizeof(Vertex{})) +
		len(g.edges)*int(unsafe.Sizeof(Edge{})) +
		4*(len(g.outStart)+len(g.outIdx)+len(g.inStart)+len(g.inIdx)) +
		int(unsafe.Sizeof([]int32(nil)))*(len(g.out)+len(g.in)) +
		int(unsafe.Sizeof(VertexID(0)))*len(g.topo) +
		4*len(g.topoPos)
	if c := g.csr; c != nil {
		n += 4*(len(c.TopoFrom)+len(c.TopoTo)+len(c.BwdFrom)+len(c.BwdTo)) +
			int(unsafe.Sizeof(int(0)))*(len(c.TopoW)+len(c.BwdW)) +
			len(c.TopoUnb)
	}
	return n
}
