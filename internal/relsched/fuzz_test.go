package relsched_test

import (
	"testing"

	"repro/internal/cg"
	"repro/internal/paperex"
	"repro/internal/relsched"
)

// fuzzGraphs are the paper's example graphs the fuzzed edit sequences
// start from; ill-posed ones are serialized first.
var fuzzGraphs = []func() *cg.Graph{
	paperex.Fig1, paperex.Fig2, paperex.Fig3a, paperex.Fig3b, paperex.Fig3c,
	paperex.Fig4, paperex.Fig5a, paperex.Fig5b, paperex.Fig7, paperex.Fig8a,
	paperex.Fig8b, paperex.Fig10,
}

// decodeEdit turns four bytes into an edit against g: the first picks the
// kind, the next two the endpoints, the last the weight (or, for a
// removal, the edge). Inserts are always bounded, so every edit is one a
// cold reschedule could accept.
func decodeEdit(g *cg.Graph, b []byte) cg.Edit {
	n := g.N()
	u, v := cg.VertexID(int(b[1])%n), cg.VertexID(int(b[2])%n)
	w := int(b[3])
	switch b[0] % 6 {
	case 0:
		return cg.AddMinEdit(u, v, w%8)
	case 1:
		return cg.AddMaxEdit(u, v, w%16)
	case 2:
		return cg.RemoveEdgeEdit((int(b[1])<<8 | w) % g.M())
	case 3:
		return cg.AddSerializationEdit(u, v)
	default:
		return cg.InsertOpEdit("", cg.Cycles(w%4), u, v)
	}
}

// FuzzApplyEdits decodes bytes into an edit sequence on one of the
// paper's example graphs and runs it through Schedule.Apply. After every
// accepted edit the schedule must agree with ReferenceCompute of the
// edited graph — offsets under every mode, and the Full, Relevant and
// Irredundant sets. A refused edit must leave the graph untouched, be
// refused by the reference on a clone as well, and leave the schedule
// valid for the next edit.
func FuzzApplyEdits(f *testing.F) {
	f.Add(byte(11), []byte{4, 2, 7, 1, 1, 7, 2, 9, 2, 0, 0, 3})
	f.Add(byte(1), []byte{5, 1, 3, 2, 0, 0, 3, 4, 4, 3, 5, 0, 1, 5, 1, 2})
	f.Add(byte(2), []byte{3, 1, 4, 0, 4, 0, 4, 3, 2, 0, 1, 0})
	f.Add(byte(7), []byte{4, 0, 2, 1, 1, 3, 2, 2, 0, 1, 3, 5})
	f.Add(byte(9), []byte{4, 1, 3, 0, 4, 2, 3, 1, 1, 3, 1, 0, 2, 0, 9, 9})
	f.Fuzz(func(t *testing.T, pick byte, data []byte) {
		g, _, err := relsched.MakeWellPosed(fuzzGraphs[int(pick)%len(fuzzGraphs)]())
		if err != nil {
			return // Fig. 3(a) has no well-posed serialization (Lemma 3)
		}
		s, err := relsched.Compute(g)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; len(data) >= 4 && step < 16; step++ {
			ed := decodeEdit(g, data[:4])
			data = data[4:]
			gen, m, n := g.Generation(), g.M(), g.N()
			next, err := s.Apply(ed)
			if err == nil {
				agreeWithReference(t, ed.Op.String(), next)
				s = next
				continue
			}
			if g.Generation() != gen || g.M() != m || g.N() != n {
				t.Fatalf("refused %v (%v) mutated the graph", ed.Op, err)
			}
			c := g.Clone()
			if err := c.Freeze(); err != nil {
				t.Fatal(err)
			}
			if _, cerr := c.ApplyEdit(ed); cerr == nil {
				if _, cerr = relsched.ReferenceCompute(c); cerr == nil {
					t.Fatalf("refused %v with %v, but the reference schedules the edited graph", ed.Op, err)
				}
			}
		}
		agreeWithReference(t, "end of sequence", s)
	})
}
