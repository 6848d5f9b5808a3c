package relbench

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/cg"
	"repro/internal/cgio"
	"repro/internal/engine"
	"repro/internal/relsched"
)

// whatifLoad is whatif-edit: Issuers closed-loop edit sessions, each on
// its own graph. One op is an engine.ApplyDelta edit followed by a warm
// engine.Schedule read of the edited graph. A session restarts from a
// fork of its cold schedule every WhatifEpisode ops and at each window's
// end, which keeps the graph near its starting size; the last schedule
// of every such episode is checked against relsched.ReferenceCompute,
// and so is every edit the engine rejected, after the window closes.
//
// Each episode gets a fresh engine: an engine's warm map keeps the last
// schedule of up to 4096 graphs it has seen, and every fork is a new
// graph, so one engine for the whole run would hold gigabytes of dead
// episodes at N=2000.
type whatifLoad struct {
	r        *run
	jobs     []job // one graph per session
	sessions []*session
	mem      memCounters
}

// Edit kinds, and how many of every deckSize ops each takes.
const (
	editAddMin = iota
	editAddMax
	editRemove
	editInsert
)

var editDeck = [...]int{editAddMin: 45, editAddMax: 35, editRemove: 18, editInsert: 2}

const deckSize = 100

// intent is one draw of the op generator: the edit kind, a pick among
// its candidates, and a small weight.
type intent struct{ kind, pick, weight int }

// intents deals edit kinds from shuffled decks that hold the mix
// exactly, so every window sees the same share of each kind; the rare,
// costly inserts would otherwise make a window's throughput depend on
// how many of them it happened to draw.
func intents(seed int64) func() intent {
	rng := rand.New(rand.NewSource(seed))
	deck := make([]int, 0, deckSize)
	for kind, n := range editDeck {
		for i := 0; i < n; i++ {
			deck = append(deck, kind)
		}
	}
	next := len(deck)
	return func() intent {
		if next == len(deck) {
			rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
			next = 0
		}
		next++
		return intent{kind: deck[next-1], pick: rng.Int(), weight: rng.Intn(4)}
	}
}

// maxCand is a maximum constraint σ(to) ≤ σ(from) + u that keeps the
// cold graph well-posed and feasible with a few cycles of slack.
type maxCand struct {
	from, to cg.VertexID
	u        int
}

type session struct {
	idx  int
	base *relsched.Schedule // the cold schedule; only ever forked
	next func() intent
	eng  *engine.Engine // this episode's engine
	snap engineCounters // summed over the engines of timed episodes

	// Candidates chosen at set-up so that edits rarely fail: minimum
	// constraints and inserts between vertices whose anchor sets already
	// contain each other's, so no anchor set changes, and maximum
	// constraints with slack over the cold longest path.
	mins, inserts [][2]cg.VertexID
	maxs          []maxCand

	cur     *relsched.Schedule
	added   []int // edge indices of the constraints this episode added
	ep      *episode
	pending []*episode // ended episodes awaiting the oracle
	ops     []opRec
	apply   []time.Duration
	read    []time.Duration
	rejects int
}

// episode is the edit history since the last fork, enough to rebuild
// any of its graphs from the cold one.
type episode struct {
	edits    []cg.Edit
	accepted []bool
	opIdx    []int // each edit's op in session.ops
	final    digest
}

func (l *whatifLoad) inputs(r *run) error {
	l.r = r
	p := r.p
	cfg := sized(p.WhatifN)
	cfg.MinConstraints, cfg.MaxConstraints = p.WhatifConstraints, p.WhatifConstraints
	var err error
	if l.jobs, err = randomJobs(rand.New(rand.NewSource(p.Seed)), cfg, p.Issuers, 0); err != nil {
		return err
	}
	var draws []func() intent
	for i := range l.jobs {
		draws = append(draws, intents(p.Seed+100+int64(i)))
	}
	r.corpusDigest = corpusDigest(l.jobs)
	r.opsDigest = digestDraws(4096, func() []int64 {
		var out []int64
		for _, d := range draws {
			it := d()
			out = append(out, int64(it.kind), int64(it.pick), int64(it.weight))
		}
		return out
	})
	return nil
}

func (l *whatifLoad) setup(ctx context.Context, r *run) ([]time.Duration, error) {
	p := r.p
	setups := make([]time.Duration, p.SetupReps)
	var bases []*relsched.Schedule
	for rep := range setups {
		graphs := make([]*cg.Graph, len(l.jobs))
		for i, j := range l.jobs {
			var err error
			if graphs[i], err = cgio.ParseString(j.text); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		eng := engine.New(engine.Options{})
		bases = bases[:0]
		for _, g := range graphs {
			res := eng.Schedule(ctx, engine.Job{Graph: g})
			if res.Err != nil {
				return nil, fmt.Errorf("cold schedule: %w", res.Err)
			}
			bases = append(bases, res.Schedule)
		}
		setups[rep] = time.Since(start)
	}
	for i, base := range bases {
		if scheduleDigest(base) != l.jobs[i].want {
			r.addVerify(0, 1)
		}
		s := &session{idx: i, base: base, next: intents(p.Seed + 100 + int64(i))}
		s.candidates(rand.New(rand.NewSource(p.Seed + 200 + int64(i))))
		if err := s.restart(-1); err != nil {
			return nil, err
		}
		l.sessions = append(l.sessions, s)
	}
	return setups, nil
}

// candidates picks the edit candidates from the cold schedule.
func (s *session) candidates(rng *rand.Rand) {
	g, info := s.base.G, s.base.Info
	// Operations are vertices 1..n; every forward edge of a randgraph
	// graph runs from a lower to a higher operation, so a minimum
	// constraint or an insert from lower to higher never closes a cycle.
	n := g.N() - 2
	const want, tries = 512, 1 << 16
	for t := 0; t < tries && (len(s.mins) < want || len(s.inserts) < want); t++ {
		u := cg.VertexID(1 + rng.Intn(n-1))
		v := u + 1 + cg.VertexID(rng.Intn(n-int(u)))
		if !info.Full[u].SubsetOf(info.Full[v]) {
			continue
		}
		if len(s.mins) < want {
			s.mins = append(s.mins, [2]cg.VertexID{u, v})
		}
		if len(s.inserts) < want && g.Vertices()[u].Delay.Bounded() {
			s.inserts = append(s.inserts, [2]cg.VertexID{u, v})
		}
	}
	for t := 0; t < tries && len(s.maxs) < want/2; t++ {
		u := cg.VertexID(1 + rng.Intn(n))
		dist := g.LongestForwardFrom(u)
		var cands []cg.VertexID
		for v := cg.VertexID(1); int(v) <= n; v++ {
			if v != u && dist[v] != cg.Unreachable && info.Full[v].SubsetOf(info.Full[u]) {
				cands = append(cands, v)
			}
		}
		if len(cands) > 0 {
			v := cands[rng.Intn(len(cands))]
			s.maxs = append(s.maxs, maxCand{from: u, to: v, u: dist[v] + 4 + rng.Intn(8)})
		}
	}
}

// restart begins a new episode on a fresh fork of the cold schedule and
// a fresh engine, keeping the counters of the last one if window w, the
// one it served, was timed.
func (s *session) restart(w int) error {
	if s.eng != nil && w >= 0 {
		s.snap.add(s.eng.Metrics().Snapshot())
	}
	s.eng = engine.New(engine.Options{})
	var err error
	s.cur, err = s.base.Fork()
	s.added = s.added[:0]
	s.ep = &episode{}
	return err
}

// realize turns an intent into an edit against the current graph; a
// removal with nothing to remove yields no edit.
func (s *session) realize(it intent) (cg.Edit, bool) {
	switch it.kind {
	case editAddMin:
		c := s.mins[it.pick%len(s.mins)]
		return cg.AddMinEdit(c[0], c[1], it.weight), true
	case editAddMax:
		c := s.maxs[it.pick%len(s.maxs)]
		return cg.AddMaxEdit(c.from, c.to, c.u), true
	case editRemove:
		if len(s.added) == 0 {
			return cg.Edit{}, false
		}
		return cg.RemoveEdgeEdit(s.added[it.pick%len(s.added)]), true
	default:
		c := s.inserts[it.pick%len(s.inserts)]
		name := "ins" + strconv.Itoa(s.idx) + "_" + strconv.Itoa(len(s.ep.edits))
		return cg.InsertOpEdit(name, cg.Cycles(it.weight), c[0], c[1]), true
	}
}

// track keeps added in step with the graph's edge indices after an
// accepted edit; m is the edge count before it.
func (s *session) track(ed cg.Edit, m int) {
	switch ed.Op {
	case cg.EditAddMin, cg.EditAddMax:
		s.added = append(s.added, m)
	case cg.EditRemoveEdge:
		// Removal swaps the last edge into the removed one's slot.
		for k := 0; k < len(s.added); k++ {
			if s.added[k] == ed.EdgeIndex {
				s.added = append(s.added[:k], s.added[k+1:]...)
				k--
			} else if s.added[k] == m-1 {
				s.added[k] = ed.EdgeIndex
			}
		}
	}
}

// endEpisode records the episode's last schedule for the oracle and
// starts the next one.
func (s *session) endEpisode(w int) error {
	if len(s.ep.edits) > 0 {
		s.ep.final = scheduleDigest(s.cur)
		s.pending = append(s.pending, s.ep)
	}
	return s.restart(w)
}

// runWindow edits until end, then ends the episode so the window's last
// schedule is checked.
func (s *session) runWindow(ctx context.Context, l *whatifLoad, w int, end time.Time) error {
	r := l.r
	traced := r.traced(w)
	due := time.Now()
	for time.Now().Before(end) && ctx.Err() == nil {
		ed, ok := s.realize(s.next())
		if !ok {
			continue
		}
		m := s.cur.G.M()
		start := time.Now()
		next, err := s.eng.ApplyDelta(s.cur, ed)
		applied := time.Now()
		failed := false
		if err == nil {
			res := s.eng.Schedule(ctx, engine.Job{Graph: next.G})
			failed = res.Err != nil || res.Schedule != next
		}
		done := time.Now()
		seq := int64(s.idx)<<40 | int64(len(s.ops))
		s.ep.edits = append(s.ep.edits, ed)
		s.ep.accepted = append(s.ep.accepted, err == nil)
		s.ep.opIdx = append(s.ep.opIdx, len(s.ops))
		s.ops = append(s.ops, opRec{window: w, lat: done.Sub(start), lag: start.Sub(due), failed: failed, refused: err != nil})
		if err == nil {
			s.cur = next
			s.track(ed, m)
		} else if w >= 0 {
			s.rejects++
		}
		if traced {
			r.rec.op(seq, "op", start, done, child{"apply", start, applied}, child{"read", applied, done})
			s.apply = append(s.apply, applied.Sub(start))
			if err == nil {
				s.read = append(s.read, done.Sub(applied))
			}
			if r.sampled(w, seq) {
				base, ep, k := s.base, s.ep, len(s.ep.edits)
				r.addShadow(shadowSample{op: seq, text: func() (string, error) {
					g, err := ep.rebuild(base, k)
					if err != nil {
						return "", err
					}
					return graphText(g)
				}})
			}
		}
		if len(s.ep.edits) == r.p.WhatifEpisode {
			if err := s.endEpisode(w); err != nil {
				return err
			}
		}
		due = time.Now()
	}
	return s.endEpisode(w)
}

// rebuild replays the first k edits of the episode, as accepted or
// rejected, onto a clone of the cold graph.
func (ep *episode) rebuild(base *relsched.Schedule, k int) (*cg.Graph, error) {
	g := base.G.Clone()
	if err := g.Freeze(); err != nil {
		return nil, err
	}
	for i := 0; i < k; i++ {
		if ep.accepted[i] {
			if _, err := g.ApplyEdit(ep.edits[i]); err != nil {
				return nil, fmt.Errorf("replaying accepted edit %d: %w", i, err)
			}
		}
	}
	return g, nil
}

// check runs the oracle over the session's ended episodes: every
// rejected edit must be rejected by a clone checked with
// relsched.ReferenceCompute, and every episode's last schedule must
// match ReferenceCompute on the rebuilt graph. It marks the ops whose
// answer was wrong and returns how many were.
func (s *session) check() int {
	mismatches := 0
	fail := func(op int) {
		if !s.ops[op].failed {
			s.ops[op].failed = true
			mismatches++
		}
	}
	for _, ep := range s.pending {
		last := ep.opIdx[len(ep.opIdx)-1]
		g := s.base.G.Clone()
		if err := g.Freeze(); err != nil {
			fail(last)
			continue
		}
		ok := true
		for i, ed := range ep.edits {
			if ep.accepted[i] {
				if _, err := g.ApplyEdit(ed); err != nil {
					fail(ep.opIdx[i])
					ok = false
					break
				}
				continue
			}
			c := g.Clone()
			err := c.Freeze()
			if err == nil {
				if _, err = c.ApplyEdit(ed); err == nil {
					_, err = relsched.ReferenceCompute(c)
				}
			}
			if err == nil {
				fail(ep.opIdx[i]) // the engine refused an edit the reference accepts
			}
		}
		if !ok {
			continue
		}
		if ref, err := relsched.ReferenceCompute(g); err != nil || scheduleDigest(ref) != ep.final {
			fail(last)
		}
	}
	s.pending = nil
	return mismatches
}

func (l *whatifLoad) measure(ctx context.Context, r *run) error {
	if err := l.window(ctx, -1, r.warmup()); err != nil {
		return err
	}
	for w := 0; w < r.p.Windows; w++ {
		if err := l.window(ctx, w, r.window()); err != nil {
			return err
		}
	}
	l.record()
	return nil
}

// window runs every session for d, then checks the episodes it ended,
// outside the window's clock.
func (l *whatifLoad) window(ctx context.Context, w int, d time.Duration) error {
	r := l.r
	if err := resetPeakRSS("self"); err != nil {
		return err
	}
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	cpu0, t0 := cpuTime(), time.Now()
	errs := make([]error, len(l.sessions))
	var wg sync.WaitGroup
	for i, s := range l.sessions {
		wg.Add(1)
		go func(i int, s *session) {
			defer wg.Done()
			errs[i] = s.runWindow(ctx, l, w, t0.Add(d))
		}(i, s)
	}
	wg.Wait()
	win := windowRec{wall: time.Since(t0), cpu: cpuTime() - cpu0}
	runtime.ReadMemStats(&mem1)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	var err error
	if win.peakMB, err = peakRSSMB("self"); err != nil {
		return err
	}

	vt := time.Now()
	mismatches := make([]int, len(l.sessions))
	for i, s := range l.sessions {
		wg.Add(1)
		go func(i int, s *session) {
			defer wg.Done()
			mismatches[i] = s.check()
		}(i, s)
	}
	wg.Wait()
	total := 0
	for _, m := range mismatches {
		total += m
	}
	r.addVerify(time.Since(vt), total)
	for _, s := range l.sessions {
		if w >= 0 {
			r.addOps(s.ops)
		}
		s.ops = s.ops[:0]
	}
	if w >= 0 {
		r.wins = append(r.wins, win)
		l.mem.add(&mem0, &mem1)
	}
	return nil
}

func (l *whatifLoad) record() {
	r := l.r
	var apply, read []float64
	var c engineCounters
	rejects, attempted := 0, 0
	for _, s := range l.sessions {
		c.merge(s.snap)
		for _, d := range s.apply {
			apply = append(apply, us(d))
		}
		for _, d := range s.read {
			read = append(read, us(d))
		}
		rejects += s.rejects
	}
	for _, o := range r.ops {
		if o.window >= 0 {
			attempted++
		}
	}
	var wall time.Duration
	for _, w := range r.wins {
		wall += w.wall
	}
	r.layerDist("relsched.apply_us.p50", "us", apply, 50)
	r.layerDist("relsched.apply_us.p99", "us", apply, 99)
	r.layerDist("engine.warm_read_us.p50", "us", read, 50)
	r.layer("relsched.apply_rejected_share", "share", float64(rejects)/float64(attempted), attempted)
	applied := c.counters["engine.delta.applied"]
	if applied > 0 {
		r.layer("engine.delta.warm_hit_ratio", "share", c.counters["engine.delta.warm_hits"]/applied, int(applied))
	}
	c.record(r, attempted, wall)
	l.mem.record(r, attempted)
}

func (l *whatifLoad) close() error { return nil }
