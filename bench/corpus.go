package relbench

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/cg"
	"repro/internal/cgio"
	"repro/internal/designs"
	"repro/internal/randgraph"
	"repro/internal/relsched"
)

// job is one graph the benchmark submits: the text the program under
// test parses, whether it asks for the well-posing repair, and the
// expected result, computed at set-up by relsched.ReferenceCompute.
type job struct {
	label    string
	text     string
	wellPose bool
	want     digest
}

// digest is a SHA-256 of an irredundant-mode offset table in canonical
// form: the anchor list, then per vertex its name, its irredundant
// anchor set, and its offset from each of those anchors. It is what a
// GET /v1/jobs/{id} shows a client by default.
type digest [sha256.Size]byte

func (d digest) String() string { return hex.EncodeToString(d[:8]) }

// scheduleDigest is the canonical digest of a schedule object.
func scheduleDigest(s *relsched.Schedule) digest {
	g, info := s.G, s.Info
	b := make([]byte, 0, 48*g.N())
	b = append(b, "anchors"...)
	for _, a := range info.List {
		b = append(append(b, ' '), g.Name(a)...)
	}
	b = append(b, '\n')
	var set []int
	for _, v := range g.Vertices() {
		set = info.Irredundant[v.ID].AppendTo(set[:0])
		b = append(append(b, g.Name(v.ID)...), '\t')
		for i, ai := range set {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, g.Name(info.List[ai])...)
		}
		for _, ai := range set {
			a := info.List[ai]
			if a == v.ID {
				continue
			}
			o, _ := s.Offset(a, v.ID, relsched.IrredundantAnchors)
			b = append(append(append(b, ' '), g.Name(a)...), '=')
			b = strconv.AppendInt(b, int64(o), 10)
		}
		b = append(b, '\n')
	}
	return sha256.Sum256(b)
}

// tableDigest is the canonical digest of an offset table as the daemon
// renders it (cgio.WriteOffsets in irredundant mode). It reads the
// numbers back out of the text, so a rendering fault shows up as a
// mismatch rather than being hashed on both sides.
func tableDigest(text string) (digest, error) {
	line, rest, _ := strings.Cut(text, "\n")
	head := strings.Fields(line)
	if len(head) < 3 || head[0] != "vertex" || head[1] != "anchor" || head[2] != "set" {
		return digest{}, fmt.Errorf("offset table header %q", line)
	}
	anchors := head[3:]
	b := make([]byte, 0, len(text)/2)
	b = append(b, "anchors"...)
	for i, a := range anchors {
		name, ok := strings.CutPrefix(a, "σ_")
		if !ok {
			return digest{}, fmt.Errorf("offset table column %q", a)
		}
		anchors[i] = name
		b = append(append(b, ' '), name...)
	}
	b = append(b, '\n')
	for rest != "" {
		line, rest, _ = strings.Cut(rest, "\n")
		name, cells := field(line)
		set, cells := field(cells)
		set, ok := strings.CutPrefix(set, "{")
		if set, ok = strings.CutSuffix(set, "}"); !ok || name == "" {
			return digest{}, fmt.Errorf("offset table row %q", line)
		}
		b = append(append(append(b, name...), '\t'), set...)
		for _, a := range anchors {
			var c string
			if c, cells = field(cells); c == "-" {
				continue
			}
			o, err := strconv.Atoi(c)
			if err != nil {
				return digest{}, fmt.Errorf("offset table row %q: cell %q", line, c)
			}
			b = append(append(append(b, ' '), a...), '=')
			b = strconv.AppendInt(b, int64(o), 10)
		}
		if extra, _ := field(cells); extra != "" {
			return digest{}, fmt.Errorf("offset table row %q has more cells than anchors", line)
		}
		b = append(b, '\n')
	}
	return sha256.Sum256(b), nil
}

// field splits off the first space-separated field of s.
func field(s string) (f, rest string) {
	s = strings.TrimLeft(s, " ")
	if i := strings.IndexByte(s, ' '); i >= 0 {
		return s[:i], s[i:]
	}
	return s, ""
}

// referenceDigest schedules g with the retained seed implementation —
// after the well-posing repair when asked — and digests the result.
func referenceDigest(g *cg.Graph, wellPose bool) (digest, error) {
	if wellPose {
		var err error
		if g, _, err = relsched.MakeWellPosed(g); err != nil {
			return digest{}, err
		}
	}
	s, err := relsched.ReferenceCompute(g)
	if err != nil {
		return digest{}, err
	}
	return scheduleDigest(s), nil
}

func graphText(g *cg.Graph) (string, error) {
	var b bytes.Buffer
	if err := cgio.Write(&b, g); err != nil {
		return "", err
	}
	return b.String(), nil
}

// errNotSubmittable marks a graph that does not survive the text
// format's round trip, so no client could submit it.
var errNotSubmittable = errors.New("graph does not round-trip through the text format")

// newJob serializes g and computes its expectation from a fresh parse
// of the text, exactly what the program under test will read.
func newJob(label string, g *cg.Graph, wellPose bool) (job, error) {
	text, err := graphText(g)
	if err != nil {
		return job{}, err
	}
	parsed, err := cgio.ParseString(text)
	if err != nil {
		return job{}, fmt.Errorf("%w: %v", errNotSubmittable, err)
	}
	want, err := referenceDigest(parsed, wellPose)
	return job{label: label, text: text, wellPose: wellPose, want: want}, err
}

// designJobs returns every constraint graph of the eight paper designs
// that a client can submit.
func designJobs() ([]job, error) {
	var jobs []job
	for _, d := range designs.All() {
		r, err := d.Synthesize()
		if err != nil {
			return nil, fmt.Errorf("synthesize %s: %w", d.Name, err)
		}
		for _, name := range r.Order {
			j, err := newJob(d.Name, r.Graphs[name].CG, false)
			if errors.Is(err, errNotSubmittable) {
				continue // a hierarchy graph reusing a vertex name
			}
			if err != nil {
				return nil, fmt.Errorf("%s graph %s: %w", d.Name, name, err)
			}
			jobs = append(jobs, j)
		}
	}
	return jobs, nil
}

// sized is randgraph's default shape with n operations.
func sized(n int) randgraph.Config {
	cfg := randgraph.Default()
	cfg.N = n
	return cfg
}

// randomJobs draws count graphs of the given shape from rng. A share
// illPosed of them is drawn with AllowIllPosed until the graph really is
// ill-posed; those are submitted with WellPose. A graph the reference
// cannot schedule (the generator's rare unfeasible draws, or a repair
// that leaves the graph unfeasible) would fail its job, so it is drawn
// again.
func randomJobs(rng *rand.Rand, cfg randgraph.Config, count int, illPosed float64) ([]job, error) {
	label := "rand-" + strconv.Itoa(cfg.N)
	jobs := make([]job, count)
	for i := range jobs {
		c := cfg
		c.AllowIllPosed = rng.Float64() < illPosed
		for try := 0; ; try++ {
			if try == 100 {
				return nil, fmt.Errorf("no schedulable %s graph (ill-posed: %t) in 100 draws", label, c.AllowIllPosed)
			}
			g := randgraph.Generate(c, rng)
			if c.AllowIllPosed && relsched.CheckWellPosed(g) == nil {
				continue
			}
			j, err := newJob(label, g, c.AllowIllPosed)
			if err == nil {
				jobs[i] = j
				break
			}
		}
	}
	return jobs, nil
}

// digestDraws is the op-sequence digest: it hashes the first n values a
// fresh instance of a workload's op generator yields, so it pins the
// draws to the seed independently of how many ops a timed run reaches.
func digestDraws(n int, draw func() []int64) string {
	var buf []byte
	for i := 0; i < n; i++ {
		for _, v := range draw() {
			buf = binary.AppendVarint(buf, v)
		}
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:8])
}

// corpusDigest hashes the jobs' texts and flags: the same seed must give
// the same corpus.
func corpusDigest(jobs []job) string {
	h := sha256.New()
	for _, j := range jobs {
		fmt.Fprintf(h, "%s\x00%t\x00%s\x00", j.label, j.wellPose, j.text)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
