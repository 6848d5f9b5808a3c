package relsched

import (
	"errors"
	"fmt"

	"repro/internal/cg"
)

// ErrUnfeasible reports that the constraint graph has a positive cycle
// even with all unbounded delays at their minimum value 0, so no schedule
// exists under any circumstances (Theorem 1).
var ErrUnfeasible = errors.New("relsched: unfeasible timing constraints (positive cycle)")

// ErrInconsistent reports that the iterative incremental scheduler
// exhausted its |E_b|+1 iteration budget without satisfying every maximum
// constraint, which proves the constraints inconsistent (Corollary 2).
var ErrInconsistent = errors.New("relsched: inconsistent timing constraints")

// IllPosedError reports a maximum timing constraint whose satisfiability
// depends on an unbounded delay: the anchor set of the backward edge's
// tail is not contained in the anchor set of its head (Lemma 1/Theorem 2).
type IllPosedError struct {
	// Edge is the index of the offending backward edge.
	Edge int
	// Tail and Head are the edge's endpoints (the constraint bounds
	// Tail's start time from Head's).
	Tail, Head cg.VertexID
	// Missing lists anchors in A(Tail) that are absent from A(Head).
	Missing []cg.VertexID
}

// Error implements the error interface.
func (e *IllPosedError) Error() string {
	return fmt.Sprintf("relsched: ill-posed maximum constraint on edge %d (%d -> %d): anchors %v not in head's anchor set",
		e.Edge, e.Tail, e.Head, e.Missing)
}

// ErrCannotWellPose reports that MakeWellPosed failed because serializing
// would close a cycle through an unbounded-weight edge; by Lemma 3 no
// well-posed serial-compatible graph exists.
var ErrCannotWellPose = errors.New("relsched: graph cannot be made well-posed (unbounded-length cycle)")

// CheckFeasible reports whether the constraint graph admits a schedule
// when all unbounded delays are 0 (Definition 6/Theorem 1), returning
// ErrUnfeasible otherwise.
func CheckFeasible(g *cg.Graph) error {
	if err := g.Freeze(); err != nil {
		return err
	}
	if g.HasPositiveCycle() {
		return ErrUnfeasible
	}
	return nil
}

// CheckWellPosed verifies that every timing constraint can be satisfied
// for all values of the unbounded delays (Definition 7). It returns nil
// for well-posed graphs, ErrUnfeasible for graphs with positive cycles,
// and an *IllPosedError identifying the first offending backward edge
// otherwise. This is the paper's checkWellposed: containment of anchor
// sets across every backward edge (Theorem 2).
func CheckWellPosed(g *cg.Graph) error {
	_, err := CheckWellPosedAnalyzed(g)
	return err
}

// CheckWellPosedAnalyzed is CheckWellPosed, but on success it returns
// the anchor-set computation the check is built on (full anchor sets
// only — no relevant/irredundant refinement, no longest-path tables).
// Pass it to AnalyzeFromSets to finish the full analysis without
// re-running the anchor-set pass, which is the dominant cost of both
// the check and the analysis on the paper's design sizes. The returned
// AnchorInfo is freshly allocated and owned by the caller.
func CheckWellPosedAnalyzed(g *cg.Graph) (*AnchorInfo, error) {
	if err := CheckFeasible(g); err != nil {
		return nil, err
	}
	ai := anchorSets(g)
	if err := checkContainment(g, ai); err != nil {
		return nil, err
	}
	return ai, nil
}

func checkContainment(g *cg.Graph, ai *AnchorInfo) error {
	for _, ei := range g.BackwardEdges() {
		e := g.Edge(ei)
		if ai.Full[e.From].SubsetOf(ai.Full[e.To]) {
			continue
		}
		ill := &IllPosedError{Edge: ei, Tail: e.From, Head: e.To}
		ai.Full[e.From].ForEach(func(i int) {
			if !ai.Full[e.To].Has(i) {
				ill.Missing = append(ill.Missing, ai.List[i])
			}
		})
		return ill
	}
	return nil
}

// MakeWellPosed returns a minimally serialized well-posed version of g, or
// an error when none exists. The input graph is never mutated; the result
// is a serial-compatible graph — g plus zero or more Serialization edges
// from anchors to the heads of backward edges (and, transitively, along
// backward-edge chains), each carrying an unbounded weight δ(anchor).
//
// Every added edge forms a zero-length maximal defining path, so by
// Theorem 7 the result is a minimum serial-compatible graph: no well-posed
// serialization of g has shorter longest paths.
//
// The returned count is the number of serialization edges added; it is 0
// when g is already well-posed, in which case the returned graph is a
// plain clone.
func MakeWellPosed(g *cg.Graph) (*cg.Graph, int, error) {
	return MakeWellPosedTraced(g, nil)
}

// MakeWellPosedTraced is MakeWellPosed with an optional trace hook: each
// sweep of the fixpoint loop reports the number of serialization edges it
// added through Hooks.SerializationPass (the converging sweep reports 0).
// A nil hook is valid and equivalent to MakeWellPosed.
func MakeWellPosedTraced(g *cg.Graph, h *Hooks) (*cg.Graph, int, error) {
	if err := CheckFeasible(g); err != nil {
		return nil, 0, err
	}
	work := g.Clone()
	added := 0
	// The paper's makeWellposed adds edges per ill-posed backward edge,
	// propagating along backward-edge chains via addEdge. Adding an edge
	// enlarges anchor sets downstream, which can expose further
	// violations on already-visited backward edges, so we iterate the
	// pass to a fixpoint; each pass adds at least one edge and at most
	// |A|·|V| edges can ever be added, guaranteeing termination.
	for {
		ai := anchorSets(work)
		n, err := makeWellPosedPass(work, ai)
		added += n
		h.serializationPass(n)
		if err != nil {
			return nil, added, err
		}
		if n == 0 {
			if err := work.Freeze(); err != nil {
				return nil, added, fmt.Errorf("relsched: serialization corrupted graph: %w", err)
			}
			return work, added, nil
		}
	}
}

// makeWellPosedPass runs one sweep of the paper's makeWellposed over all
// backward edges, adding serialization edges to g in place and keeping the
// anchor sets in ai consistent with the additions. It returns the number
// of edges added.
func makeWellPosedPass(g *cg.Graph, ai *AnchorInfo) (int, error) {
	added := 0
	var addEdge func(aIdx int, v cg.VertexID) error
	addEdge = func(aIdx int, v cg.VertexID) error {
		if ai.Full[v].Has(aIdx) {
			return nil
		}
		a := ai.List[aIdx]
		if a == v {
			return ErrCannotWellPose
		}
		// Adding the unbounded edge (a, v) closes an unbounded-length
		// cycle exactly when v already reaches a.
		if g.IsForwardPredecessor(v, a) {
			return ErrCannotWellPose
		}
		g.AddSerialization(a, v)
		added++
		ai.Full[v].Add(aIdx)
		// Propagate along backward edges leaving v so chained maximum
		// constraints stay well-posed.
		for _, ei := range g.OutEdges(v) {
			e := g.Edge(int(ei))
			if e.Kind.Forward() {
				continue
			}
			if err := addEdge(aIdx, e.To); err != nil {
				return err
			}
		}
		return nil
	}
	for _, ei := range g.BackwardEdges() {
		e := g.Edge(ei)
		missing := []int{}
		ai.Full[e.From].ForEach(func(i int) {
			if !ai.Full[e.To].Has(i) {
				missing = append(missing, i)
			}
		})
		for _, aIdx := range missing {
			if err := addEdge(aIdx, e.To); err != nil {
				return added, err
			}
		}
	}
	return added, nil
}
