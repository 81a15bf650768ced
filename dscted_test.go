package dscted

import (
	"math"
	"testing"
	"time"
)

func TestQuickstartFlow(t *testing.T) {
	src := NewRand(42, "facade")
	inst, err := GenerateUniformFleet(src, DefaultConfig(20, 0.5, 0.4), 3)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := SolveApprox(inst, ApproxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sol.Schedule.Validate(inst, ValidateOptions{RequireIntegral: true}); err != nil {
		t.Fatal(err)
	}
	if sol.TotalAccuracy <= 0 || sol.TotalAccuracy > sol.FR.TotalAccuracy+1e-6 {
		t.Errorf("accuracy %g out of (0, UB=%g]", sol.TotalAccuracy, sol.FR.TotalAccuracy)
	}
	if g := Guarantee(inst); g <= 0 {
		t.Errorf("guarantee %g", g)
	}

	res, err := Simulate(inst, sol.Schedule, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Missed) != 0 {
		t.Errorf("simulation missed: %v", res.Missed)
	}
}

func TestSolveFRAndExactChain(t *testing.T) {
	src := NewRand(7, "facade-exact")
	inst, err := GenerateUniformFleet(src, DefaultConfig(4, 0.8, 0.6), 2)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := SolveFR(inst, FROptions{})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := SolveExact(inst, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !ex.Optimal {
		t.Skipf("exact solve hit the limit after %d nodes", ex.Nodes)
	}
	if ex.TotalAccuracy > fr.TotalAccuracy+1e-5 {
		t.Errorf("exact %g exceeds fractional bound %g", ex.TotalAccuracy, fr.TotalAccuracy)
	}
	if ex.Schedule == nil {
		t.Fatal("optimal solve must return a schedule")
	}
	if err := ex.Schedule.Validate(inst, ValidateOptions{RequireIntegral: true}); err != nil {
		t.Fatal(err)
	}
}

func TestBaselinesViaFacade(t *testing.T) {
	src := NewRand(9, "facade-base")
	inst, err := GenerateUniformFleet(src, DefaultConfig(25, 0.8, 0.3), 2)
	if err != nil {
		t.Fatal(err)
	}
	nc := EDFNoCompression(inst)
	if err := nc.Validate(inst, ValidateOptions{RequireIntegral: true}); err != nil {
		t.Fatal(err)
	}
	l3, err := EDF3CompressionLevels(inst, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l3.Validate(inst, ValidateOptions{RequireIntegral: true}); err != nil {
		t.Fatal(err)
	}
}

func TestAccuracyAndMachineHelpers(t *testing.T) {
	pwl, err := NewAccuracy(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if pwl.NumSegments() != 5 {
		t.Errorf("segments = %d", pwl.NumSegments())
	}
	m := NewMachine("demo", 2000, 80)
	if math.Abs(m.Efficiency()-80) > 1e-9 {
		t.Errorf("efficiency %g", m.Efficiency())
	}
	if len(GPUCatalog()) < 10 {
		t.Error("catalog too small")
	}
}
