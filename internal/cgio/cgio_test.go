package cgio

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cg"
	"repro/internal/paperex"
	"repro/internal/randgraph"
	"repro/internal/relsched"
)

const fig2Text = `
# The paper's Fig. 2 graph.
graph fig2
vertex a unbounded
vertex v1 delay=2
vertex v2 delay=2
vertex v3 delay=5
vertex v4 delay=1
seq v0 a
seq v0 v1
seq v1 v2
seq a v3
seq v3 v4
seq v2 v4
min v0 v3 3
max v1 v2 2
`

func TestParseFig2(t *testing.T) {
	g, err := ParseString(fig2Text)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if g.N() != 6 {
		t.Fatalf("N = %d, want 6", g.N())
	}
	s, err := relsched.Compute(g)
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	v4 := g.VertexByName("v4")
	if o, ok := s.Offset(g.Source(), v4, relsched.FullAnchors); !ok || o != 8 {
		t.Errorf("σ_v0(v4) = %d,%v, want 8 (Table II)", o, ok)
	}
	if o, ok := s.Offset(g.VertexByName("a"), v4, relsched.FullAnchors); !ok || o != 5 {
		t.Errorf("σ_a(v4) = %d,%v, want 5 (Table II)", o, ok)
	}
}

func TestRoundTrip(t *testing.T) {
	for name, mk := range map[string]func() *cg.Graph{
		"fig1": paperex.Fig1, "fig2": paperex.Fig2, "fig10": paperex.Fig10,
	} {
		g := mk()
		var buf bytes.Buffer
		if err := Write(&buf, g); err != nil {
			t.Fatalf("%s: Write: %v", name, err)
		}
		g2, err := ParseString(buf.String())
		if err != nil {
			t.Fatalf("%s: reparse: %v\n%s", name, err, buf.String())
		}
		if g2.N() != g.N() || g2.M() != g.M() {
			t.Errorf("%s: round trip changed size: %d/%d vs %d/%d", name, g.N(), g.M(), g2.N(), g2.M())
		}
		s1, err1 := relsched.Compute(g)
		s2, err2 := relsched.Compute(g2)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%s: schedulability diverged: %v vs %v", name, err1, err2)
		}
		if err1 != nil {
			continue
		}
		for _, v := range g.Vertices() {
			for _, a := range s1.Info.List {
				o1, ok1 := s1.Offset(a, v.ID, relsched.FullAnchors)
				o2, ok2 := s2.Offset(g2.VertexByName(g.Name(a)), g2.VertexByName(v.Name), relsched.FullAnchors)
				if ok1 != ok2 || (ok1 && o1 != o2) {
					t.Errorf("%s: offset σ_%s(%s) diverged after round trip", name, g.Name(a), v.Name)
				}
			}
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, tc := range []struct{ name, text string }{
		{"unknown directive", "frob v0 v1"},
		{"unknown vertex", "seq v0 nope"},
		{"bad delay", "vertex x delay=-3"},
		{"bad delay word", "vertex x sometimes"},
		{"duplicate vertex", "vertex x delay=1\nvertex x delay=2"},
		{"min arity", "vertex x delay=1\nseq v0 x\nmin v0 x"},
		{"bad bound", "vertex x delay=1\nseq v0 x\nmax v0 x -2"},
		{"self edge", "vertex x delay=1\nseq v0 x\nseq x x"},
		{"self constraint", "vertex x delay=1\nseq v0 x\nmin x x 0"},
	} {
		if _, err := ParseString(tc.text); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
	// A name that is not UTF-8 is refused with the line it is on: 0xff is
	// tabwriter's escape byte, and JSON would turn it into U+FFFD.
	_, err := ParseString("vertex a delay=1\nvertex a\xffb delay=1\nseq v0 a")
	var pe *ParseError
	if !errors.As(err, &pe) || pe.Line != 2 || !strings.Contains(pe.Msg, "UTF-8") {
		t.Errorf("invalid UTF-8 name: got %v, want a line 2 ParseError about UTF-8", err)
	}
	// Structural validation also runs: unreachable vertex.
	if _, err := ParseString("vertex x delay=1\nvertex y delay=1\nseq v0 x"); err == nil {
		t.Error("expected polarity error")
	}
	// A line of 64 KiB or more is refused with its line number, as the
	// bufio.Scanner the format was first read with refused it; a line one
	// byte shorter, CR included, is read.
	long := "vertex x delay=1\nseq v0 x #" + strings.Repeat("-", 65534-len("seq v0 x #"))
	if _, err := ParseString(long + "\r\n"); err != nil {
		t.Errorf("a line of 65535 bytes: %v", err)
	}
	_, err = ParseString(long + "-\r\n")
	if !errors.As(err, &pe) || pe.Line != 2 || !strings.Contains(pe.Msg, "longer than 65535 bytes") {
		t.Errorf("a line of 65536 bytes: got %v, want a line 2 ParseError about its length", err)
	}
}

// TestParseAllocs pins the parser's allocations: the graph's arrays and
// its names are allocated once, so a parse costs a fixed handful of
// objects, not several per line.
func TestParseAllocs(t *testing.T) {
	for _, n := range []int{200, 1000} {
		cfg := randgraph.Default()
		cfg.N = n
		var b strings.Builder
		if err := Write(&b, randgraph.Generate(cfg, rand.New(rand.NewSource(int64(n))))); err != nil {
			t.Fatal(err)
		}
		src := b.String()
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := ParseString(src); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 100 {
			t.Errorf("N=%d: parsing allocates %.0f objects, want at most 100", n, allocs)
		}
	}
}

func TestWriteOffsetsAndTrace(t *testing.T) {
	g := paperex.Fig10()
	s, tr, err := relsched.ComputeTrace(g)
	if err != nil {
		t.Fatalf("ComputeTrace: %v", err)
	}
	var buf bytes.Buffer
	if err := WriteOffsets(&buf, s, relsched.FullAnchors); err != nil {
		t.Fatalf("WriteOffsets: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"σ_v0", "σ_a", "v7", "12"} {
		if !strings.Contains(out, want) {
			t.Errorf("offsets table missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := WriteTrace(&buf, g, tr); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	if !strings.Contains(buf.String(), "it1 compute") || !strings.Contains(buf.String(), "it2 readjust") {
		t.Errorf("trace table missing phases:\n%s", buf.String())
	}
	buf.Reset()
	p := relsched.ZeroProfile(g)
	ts, err := s.StartTimes(p, relsched.IrredundantAnchors)
	if err != nil {
		t.Fatalf("StartTimes: %v", err)
	}
	if err := WriteStartTimes(&buf, g, p, ts); err != nil {
		t.Fatalf("WriteStartTimes: %v", err)
	}
	if !strings.Contains(buf.String(), "T(v)") {
		t.Errorf("start-time table malformed:\n%s", buf.String())
	}
}
