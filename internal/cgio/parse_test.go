package cgio_test

import (
	"bufio"
	"errors"
	"strings"
	"testing"

	"repro/internal/cgio"
	"repro/internal/cgio/cgiotest"
)

// parseSeeds are inputs on the edges of the tokenizer: Unicode spaces
// (a no-break space inside a name splits it, as strings.Fields does),
// CRLF line ends, tabs, comments, and bytes that are not UTF-8.
var parseSeeds = []string{
	"vertex a\u00a0b delay=1\nseq v0 a\u00a0b\n",
	"graph crlf\r\nvertex a delay=1\r\nvertex b unbounded\r\nseq v0 a\r\nseq a b\r\nmax a b 3\r\n",
	"vertex\ta\tdelay=2\n\tseq\tv0\ta\t\n",
	"vertex a delay=1 # trailing\nseq v0 a # end",
	"vertex a delay=1\u3000\nseq v0\u0085a",
	"vertex a\xc2 delay=1\nseq v0 a\xc2",
	"vertex \xff delay=1",
	"#only a comment\n\n   \n",
	"vertex a delay=+3\nvertex b delay=007\nseq v0 a\nseq a b\nmin v0 b -0",
	"vertex a delay=1\nseq v0 a extra",
	"vertex a delay=1\nseq v0 a\nmin v0 a 1 2",
	"graph\nvertex a unbounded\nseq v0 a\nmin a a 1",
}

// sameParse fails t unless cgio.Parse and the line-by-line oracle agree
// on src: both refuse it with the same error text, or both accept it and
// cgio.Write renders the same text. Where the oracle's bufio.Scanner
// stops on a line of 64 KiB or more, Parse must name that line.
func sameParse(t *testing.T, src string) {
	t.Helper()
	g, err := cgio.ParseString(src)
	ref, refErr := cgiotest.ReferenceParse(strings.NewReader(src))
	switch {
	case errors.Is(refErr, bufio.ErrTooLong):
		var pe *cgio.ParseError
		if !errors.As(err, &pe) || !strings.Contains(pe.Msg, "longer than") {
			t.Fatalf("the oracle refuses a long line, Parse says %v", err)
		}
	case err != nil || refErr != nil:
		if err == nil || refErr == nil || err.Error() != refErr.Error() {
			t.Fatalf("Parse error %v, oracle error %v\n%q", err, refErr, src)
		}
	default:
		var got, want strings.Builder
		if err := cgio.Write(&got, g); err != nil {
			t.Fatal(err)
		}
		if err := cgio.Write(&want, ref); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Fatalf("Parse and the oracle read different graphs from %q\ngot:\n%s\nwant:\n%s", src, got.String(), want.String())
		}
	}
}

// TestParseMatchesReference runs the differential on lines around the
// 64 KiB limit, with and without CR and a final '\n'; FuzzParse runs it
// on parseSeeds.
func TestParseMatchesReference(t *testing.T) {
	head := "vertex x delay=1\nseq v0 x #"
	for _, n := range []int{65533, 65534, 65535, 65536, 65537} {
		line := head + strings.Repeat("-", n-len("seq v0 x #"))
		for _, end := range []string{"", "\n", "\r", "\r\n"} {
			sameParse(t, line+end)
			sameParse(t, line+end+"bogus\n")
		}
	}
}
