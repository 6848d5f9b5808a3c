package relsched

import (
	"repro/internal/cg"
)

// TracePhase labels one column of a scheduling trace in the style of the
// paper's Fig. 10: each iteration contributes a "compute" snapshot (after
// IncrementalOffset) and, when any maximum constraint was violated, a
// "readjust" snapshot (after ReadjustOffsets).
type TracePhase struct {
	Iteration int
	// Readjust is false for the compute snapshot and true for the
	// readjust snapshot of the iteration.
	Readjust bool
	// Off[ai][v] is the offset table at this point (NoOffset where the
	// anchor is not in the vertex's anchor set).
	Off [][]int
}

// Trace is the sequence of offset snapshots produced while scheduling —
// the data behind the paper's Fig. 10 iteration trace.
type Trace struct {
	Info   *AnchorInfo
	Phases []TracePhase
}

// ComputeTrace schedules g like Compute but additionally records the
// offset table after every IncrementalOffset and ReadjustOffsets phase,
// enabling the reproduction of the paper's Fig. 10 trace.
func ComputeTrace(g *cg.Graph) (*Schedule, *Trace, error) {
	if err := CheckWellPosed(g); err != nil {
		return nil, nil, err
	}
	info, err := Analyze(g)
	if err != nil {
		return nil, nil, err
	}
	nA, nV := len(info.List), g.N()
	off := make([]int, nA*nV)
	active := make([]uint64, nV*((nA+63)/64))
	seedOffsets(off, active, info)
	tr := &Trace{Info: info}
	iter := 0
	snapshot := func(readjust bool) {
		cp := make([][]int, nA)
		for ai := range cp {
			row := make([]int, nV)
			for v := range row {
				row[v] = off[v*nA+ai]
			}
			cp[ai] = row
		}
		tr.Phases = append(tr.Phases, TracePhase{Iteration: iter, Readjust: readjust, Off: cp})
	}
	iters, err := solve(g.CSR(), off, nA, active, &Hooks{
		RelaxationSweep: func(i int) {
			iter = i
			snapshot(false)
		},
		Readjustment: func(raised int) {
			if raised > 0 {
				snapshot(true)
			}
		},
	})
	if err != nil {
		return nil, tr, err
	}
	s := newSchedule(info, iters, off, active, nil)
	tr.Info = s.Info
	return s, tr, nil
}
