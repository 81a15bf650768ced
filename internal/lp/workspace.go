package lp

// Workspace: arena-style ownership of every scratch buffer a solve needs,
// so back-to-back solves run with zero steady-state allocations. The
// package-level entry points (Solve, SolveBasis, SolveFrom) build a fresh
// solver per call — correct, but a production loop that solves thousands
// of node LPs back-to-back pays the allocator and the garbage collector
// per solve, not per pivot. A Workspace hoists all of that state into one
// reusable object:
//
//   - the simplex core's work arrays (duals, reduced costs, pivot rows,
//     FTRAN/BTRAN scratch) and its CSR+CSC matrix storage;
//   - the LU elimination workspace, the factor arenas and the eta file
//     (noEscape mode), or a persistent holder for adopted frozen parent
//     factors (basis-publishing mode);
//   - pricing state: devex reference weights and partial-pricing candidate
//     lists;
//   - the row flattener, ratio-test, bound-flip and residual-check scratch;
//   - the output Solution and its X vector (noEscape mode).
//
// After the first solve of a given shape has grown the buffers, further
// Solve/SolveFrom calls allocate nothing (testing.AllocsPerRun pins 0 in
// workspace_test.go). Buffers only ever grow, so a Workspace that has seen
// its largest instance is allocation-free for every smaller one.
//
// Aliasing contract. Solutions returned by Solve and SolveFrom alias
// Workspace-owned buffers: they are valid until the
// next solve on the same Workspace (or Reset), and must be cloned (or
// consumed) before it. Reset relinquishes exactly those output buffers, so
// a caller that wants to retain the last Solution calls Reset and lets the
// next solve allocate fresh ones. SolveBasis/SolveBasisFrom publish a
// Basis and therefore return fully independent Solutions and snapshots
// (copy-out instead of aliasing) — that is the variant internal/mip uses,
// one Workspace per worker goroutine.
//
// A Workspace is NOT safe for concurrent use: one goroutine at a time.
// Concurrent batch solving wants one Workspace per worker — that is
// exactly what BatchSolve does.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// grown returns s resized to length n with every element zeroed, reusing
// the backing array when its capacity suffices — the Workspace-wide
// replacement for make([]T, n) in solver-construction paths.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// taken returns dst overwritten with a copy of src, reusing dst's
// capacity — the Workspace-wide replacement for append([]T(nil), src...).
func taken[T any](dst, src []T) []T {
	return append(dst[:0], src...)
}

// Workspace owns the solver state reused across solves. The zero value is
// not ready for use; NewWorkspace sets the ownership flag the solver keys
// its buffer-reuse decisions on.
type Workspace struct {
	rev rev
}

// NewWorkspace returns an empty Workspace. Buffers are grown lazily by the
// first solves; nothing is preallocated.
func NewWorkspace() *Workspace {
	ws := &Workspace{}
	ws.rev.owned = true
	return ws
}

// Reset relinquishes the output buffers the most recently returned
// Solution may alias (the Solution struct and its X vector). The retained
// Solution stays valid; the next solve allocates fresh
// output buffers and settles back into zero steady-state allocations. All
// other scratch is kept.
func (ws *Workspace) Reset() {
	ws.rev.solOut = nil
	ws.rev.xOut = nil
}

// Solve is the reusing equivalent of the package-level Solve: the same
// statuses, objectives and X vectors bit-for-bit, with every scratch
// buffer taken from the Workspace. The returned Solution aliases
// Workspace-owned buffers — see the aliasing contract in the file comment.
//
//lint:hotpath=bounded the workspace cold solve allocates only on warm-up growth; the AllocsPerRun pins hold the steady state at zero
func (ws *Workspace) Solve(p *Problem, opts Options) (*Solution, error) {
	t := &ws.rev
	t.noEscape = true
	t.init(p, opts)
	sol, _, err := t.solveCold(p)
	return sol, err
}

// SolveFrom is the reusing equivalent of SolveFrom's Solution: a warm
// start from a Basis produced by any SolveBasis/SolveFrom variant, with
// every scratch buffer — including a private deep copy of the parent's
// frozen LU factors, so eta appends never trigger copy-on-write growth —
// taken from the Workspace. No Basis is published; use SolveBasisFrom when
// the caller needs one. The returned Solution aliases Workspace-owned
// buffers.
//
//lint:hotpath=bounded the workspace warm solve allocates only on warm-up growth; the AllocsPerRun pins hold the steady state at zero
func (ws *Workspace) SolveFrom(p *Problem, from *Basis, opts Options) (*Solution, error) {
	if err := checkBasisFit(p, from); err != nil {
		return nil, err
	}
	t := &ws.rev
	t.noEscape = true
	t.init(p, opts)
	sol, _, err := t.solveFrom(p, from)
	return sol, err
}

// SolveBasis is the reusing equivalent of SolveBasis: it publishes a Basis
// snapshot, so the Solution, its X vector and every snapshot field are
// allocated fresh (copy-out) — safe to retain indefinitely — while all
// internal scratch still comes from the Workspace. This is the cold-solve
// entry point internal/mip routes node solves through.
func (ws *Workspace) SolveBasis(p *Problem, opts Options) (*Solution, *Basis, error) {
	t := &ws.rev
	t.noEscape = false
	t.init(p, opts)
	return t.solveCold(p)
}

// SolveBasisFrom is the reusing equivalent of SolveFrom: a warm start that
// publishes a fresh Basis snapshot (adopted parent factors are held by
// value and frozen copy-on-write, exactly like the package-level path).
// Solution and Basis are safe to retain.
func (ws *Workspace) SolveBasisFrom(p *Problem, from *Basis, opts Options) (*Solution, *Basis, error) {
	if err := checkBasisFit(p, from); err != nil {
		return nil, nil, err
	}
	t := &ws.rev
	t.noEscape = false
	t.init(p, opts)
	return t.solveFrom(p, from)
}

// clone returns an independent deep copy of a possibly Workspace-aliased
// Solution.
func (s *Solution) clone() *Solution {
	c := *s
	if s.X != nil {
		c.X = append([]float64(nil), s.X...)
	}
	return &c
}

// BatchSolve solves every problem in probs under one Options, sharding the
// corpus across workers goroutines that each own a private Workspace
// reused across their share — the batched many-instance harness the
// throughput benchmarks measure. workers <= 0 uses runtime.GOMAXPROCS(0).
//
// Results are positional: out[i] is the solution of probs[i] regardless of
// which worker solved it, and every Solution is an independent deep copy
// (safe to retain). Work is handed out by an atomic cursor, so the
// assignment of instances to workers is scheduling-dependent — but each
// instance's Solution is not: a Workspace solve is bit-identical to the
// fresh-allocation solve of the same instance, so BatchSolve output is
// deterministic at any worker count.
//
// On solver error the first failing instance (by index) is reported; out
// keeps the solutions of the instances that succeeded.
func BatchSolve(probs []*Problem, opts Options, workers int) ([]*Solution, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(probs) {
		workers = len(probs)
	}
	out := make([]*Solution, len(probs))
	errs := make([]error, len(probs))
	if workers <= 1 {
		ws := NewWorkspace()
		for i, p := range probs {
			sol, err := ws.Solve(p, opts)
			if err != nil {
				errs[i] = err
				continue
			}
			out[i] = sol.clone()
		}
	} else {
		var cursor atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ws := NewWorkspace()
				for {
					i := int(cursor.Add(1)) - 1
					if i >= len(probs) {
						return
					}
					sol, err := ws.Solve(probs[i], opts)
					if err != nil {
						errs[i] = err
						continue
					}
					out[i] = sol.clone()
				}
			}()
		}
		wg.Wait()
	}
	for i, err := range errs {
		if err != nil {
			return out, fmt.Errorf("lp: batch instance %d: %w", i, err)
		}
	}
	return out, nil
}
