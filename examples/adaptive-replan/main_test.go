package main

// The incremental engine must agree with the cold path: both the initial
// plan and the warm replan are checked against from-scratch SolveExact
// solves of the same instances — identical objective, and the engine's
// schedule must validate as a feasible schedule delivering it.

import (
	"math"
	"testing"

	dscted "repro"
)

func TestEngineMatchesColdSolve(t *testing.T) {
	out, err := runReplan()
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: the engine's plan vs a cold exact solve of the instance.
	cold, err := dscted.SolveExact(out.inst, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !cold.Optimal {
		t.Fatal("cold solve of the plan instance not optimal")
	}
	tol := 1e-6 * (1 + math.Abs(cold.TotalAccuracy))
	if math.Abs(out.plan.TotalAccuracy-cold.TotalAccuracy) > tol {
		t.Errorf("plan: engine accuracy %.12g, cold %.12g", out.plan.TotalAccuracy, cold.TotalAccuracy)
	}
	if err := out.planSched.Validate(out.inst, dscted.ValidateOptions{}); err != nil {
		t.Errorf("engine plan schedule infeasible: %v", err)
	}
	if got := out.planSched.TotalAccuracy(out.inst); math.Abs(got-cold.TotalAccuracy) > tol {
		t.Errorf("plan schedule delivers %.12g, cold schedule %.12g", got, cold.TotalAccuracy)
	}

	// Phase 2: the warm replan vs a cold exact solve of the rest instance.
	coldRest, err := dscted.SolveExact(out.rest, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !coldRest.Optimal {
		t.Fatal("cold solve of the rest instance not optimal")
	}
	tol = 1e-6 * (1 + math.Abs(coldRest.TotalAccuracy))
	if math.Abs(out.replan.TotalAccuracy-coldRest.TotalAccuracy) > tol {
		t.Errorf("replan: engine accuracy %.12g, cold %.12g", out.replan.TotalAccuracy, coldRest.TotalAccuracy)
	}
	replanSched := toSchedule(out.rest, out.replan)
	if err := replanSched.Validate(out.rest, dscted.ValidateOptions{}); err != nil {
		t.Errorf("engine replan schedule infeasible: %v", err)
	}
	if got := replanSched.TotalAccuracy(out.rest); math.Abs(got-coldRest.TotalAccuracy) > tol {
		t.Errorf("replan schedule delivers %.12g, cold schedule %.12g", got, coldRest.TotalAccuracy)
	}

	// The replan must have warm started from the plan's exported state.
	if out.stats.WarmResolves != 1 || out.stats.Solves != 2 {
		t.Errorf("stats = %+v, want 2 solves with the second warm", out.stats)
	}
}
