package hcl_test

import (
	"testing"

	"repro/internal/designs"
	"repro/internal/hcl"
)

// FuzzHCLParse feeds arbitrary sources to the HCL parser, seeded with the
// eight paper designs. Parse must never panic, and a source it accepts
// must print, re-parse, and print to the same text: the printer emits
// only what the parser reads back as the same program.
//
//	go test -run '^$' -fuzz FuzzHCLParse -fuzztime 20s ./internal/hcl/
func FuzzHCLParse(f *testing.F) {
	for _, d := range designs.All() {
		f.Add(d.Source)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := hcl.Parse(src)
		if err != nil {
			return
		}
		out, err := hcl.PrintString(p)
		if err != nil {
			t.Fatalf("an accepted source does not print: %v", err)
		}
		p2, err := hcl.Parse(out)
		if err != nil {
			t.Fatalf("the printed source does not parse: %v\n%s", err, out)
		}
		out2, err := hcl.PrintString(p2)
		if err != nil {
			t.Fatalf("the re-parsed source does not print: %v", err)
		}
		if out2 != out {
			t.Fatalf("printing is not a fixed point:\n%s\nthen\n%s", out, out2)
		}
	})
}
