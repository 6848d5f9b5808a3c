package cgio_test

import (
	"os"
	"strings"
	"testing"

	"repro/internal/cgio"
	"repro/internal/cgio/cgiotest"
	"repro/internal/designs"
	"repro/internal/engine"
	"repro/internal/relsched"
)

// FuzzParse feeds arbitrary text to the graph parser. Parse must never
// panic; it must agree with the line-by-line oracle (see sameParse); a
// graph it accepts must survive Write then Parse with the same
// fingerprint; and when the graph schedules (repaired if ill-posed), its
// offset tables must equal the tabwriter oracle's in every mode. The
// corpus is seeded from the checked-in .cg examples, the eight designs'
// hierarchy graphs in the text format, and parseSeeds. Run with
//
//	go test -run '^$' -fuzz FuzzParse -fuzztime 20s ./internal/cgio/
func FuzzParse(f *testing.F) {
	for _, path := range []string{"../../examples/gcd/gcd.cg", "../../examples/illposed/illposed.cg"} {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	for _, d := range designs.All() {
		r, err := d.Synthesize()
		if err != nil {
			f.Fatal(err)
		}
		for _, gname := range r.Order {
			var b strings.Builder
			if err := cgio.Write(&b, r.Graphs[gname].CG); err != nil {
				f.Fatal(err)
			}
			f.Add(b.String())
		}
	}
	for _, src := range parseSeeds {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		sameParse(t, src)
		g, err := cgio.ParseString(src)
		if err != nil {
			return
		}
		var text strings.Builder
		if err := cgio.Write(&text, g); err != nil {
			t.Fatalf("Write: %v", err)
		}
		g2, err := cgio.ParseString(text.String())
		if err != nil {
			t.Fatalf("the written graph does not parse: %v\n%s", err, text.String())
		}
		if engine.FingerprintOf(g2) != engine.FingerprintOf(g) {
			t.Fatalf("Write then Parse changed the fingerprint\n%s", text.String())
		}
		wp, _, err := relsched.MakeWellPosed(g)
		if err != nil {
			return
		}
		s, err := relsched.Compute(wp)
		if err != nil {
			return
		}
		for _, mode := range allModes {
			var got strings.Builder
			if err := cgio.WriteOffsets(&got, s, mode); err != nil {
				t.Fatalf("WriteOffsets: %v", err)
			}
			if want := cgiotest.ReferenceString(s, mode); got.String() != want {
				t.Fatalf("%v table differs from the tabwriter oracle\ngot:\n%q\nwant:\n%q", mode, got.String(), want)
			}
		}
	})
}
