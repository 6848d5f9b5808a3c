package cgio_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cg"
	"repro/internal/cgio"
	"repro/internal/cgio/cgiotest"
	"repro/internal/designs"
	"repro/internal/paperex"
	"repro/internal/randgraph"
	"repro/internal/relsched"
)

var allModes = []relsched.AnchorMode{
	relsched.FullAnchors, relsched.RelevantAnchors, relsched.IrredundantAnchors,
}

// countingWriter counts the Write calls that reach it.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// sameAsReference fails the test unless WriteOffsets renders s, in every
// mode, byte for byte as the tabwriter oracle does, in one Write.
func sameAsReference(t *testing.T, label string, s *relsched.Schedule) {
	t.Helper()
	for _, mode := range allModes {
		var got countingWriter
		if err := cgio.WriteOffsets(&got, s, mode); err != nil {
			t.Fatalf("%s/%v: WriteOffsets: %v", label, mode, err)
		}
		if want := cgiotest.ReferenceString(s, mode); got.String() != want {
			t.Fatalf("%s/%v: table differs from the tabwriter oracle\ngot:\n%q\nwant:\n%q", label, mode, got.String(), want)
		}
		if got.writes != 1 {
			t.Errorf("%s/%v: %d writes, want 1", label, mode, got.writes)
		}
	}
}

// multiByteNames is a graph whose names hold multi-byte runes: columns
// are measured in runes, and the exact-size buffer must hold the extra
// bytes.
const multiByteNames = `
vertex ä unbounded
vertex σ1 delay=2
vertex 日本語 delay=3
vertex x delay=1
seq v0 ä
seq v0 σ1
seq ä 日本語
seq σ1 日本語
seq 日本語 x
max 日本語 x 9
min σ1 x 2
`

// TestWriteOffsetsMatchesReference pins the two-pass renderer to the
// tabwriter oracle in all three modes: on every hierarchy graph of the
// eight designs (repaired with MakeWellPosed where ill-posed), on the
// paper's figures, on a graph with multi-byte names, and on randgraph
// graphs of N = 3, 5, 40 and 200.
func TestWriteOffsetsMatchesReference(t *testing.T) {
	tables := 0
	for _, d := range designs.All() {
		r, err := d.Synthesize()
		if err != nil {
			t.Fatal(err)
		}
		for i, gname := range r.Order {
			wp, _, err := relsched.MakeWellPosed(r.Graphs[gname].CG)
			if err != nil {
				t.Fatalf("%s/%d: %v", d.Name, i, err)
			}
			s, err := relsched.Compute(wp)
			if err != nil {
				t.Fatalf("%s/%d: %v", d.Name, i, err)
			}
			sameAsReference(t, fmt.Sprintf("%s/%d", d.Name, i), s)
			tables += len(allModes)
		}
	}
	multiByte := func() *cg.Graph {
		g, err := cgio.ParseString(multiByteNames)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	for name, mk := range map[string]func() *cg.Graph{
		"fig1": paperex.Fig1, "fig2": paperex.Fig2, "fig10": paperex.Fig10,
		"multi-byte names": multiByte,
	} {
		s, err := relsched.Compute(mk())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sameAsReference(t, name, s)
		tables += len(allModes)
	}
	for _, tc := range []struct{ n, graphs int }{{3, 40}, {5, 40}, {40, 40}, {200, 12}} {
		cfg := randgraph.Default()
		cfg.N = tc.n
		rng := rand.New(rand.NewSource(int64(tc.n)))
		for i := 0; i < tc.graphs; i++ {
			s, err := relsched.Compute(randgraph.Generate(cfg, rng))
			if err != nil {
				continue // an unfeasible draw has no table
			}
			sameAsReference(t, fmt.Sprintf("randgraph N=%d #%d", tc.n, i), s)
			tables += len(allModes)
		}
	}
	if tables < 600 {
		t.Errorf("only %d tables compared", tables)
	}
}
