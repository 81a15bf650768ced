package main

import (
	"testing"
	"time"

	dscted "repro"
	"repro/internal/numeric"
)

func testInstance(t *testing.T) *dscted.Instance {
	t.Helper()
	in, err := dscted.GenerateUniformFleet(dscted.NewRand(5, "cmd-test"), dscted.DefaultConfig(8, 0.6, 0.5), 2)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestSolveDispatch(t *testing.T) {
	in := testInstance(t)
	for _, method := range []string{"approx", "fr", "edf", "edf3", "exact"} {
		s, note, err := solve(in, method, 20*time.Second)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if s == nil || note == "" {
			t.Fatalf("%s: empty result", method)
		}
		if err := s.Validate(in, dscted.ValidateOptions{}); err != nil {
			t.Errorf("%s: infeasible schedule: %v", method, err)
		}
	}
	if _, _, err := solve(in, "nope", time.Second); err == nil {
		t.Error("unknown method accepted")
	}
}

func TestPct(t *testing.T) {
	if !numeric.AlmostEqual(pct(50, 200), 25) {
		t.Errorf("pct = %g", pct(50, 200))
	}
	if pct(1, 0) != 0 {
		t.Error("zero total should yield 0")
	}
}
