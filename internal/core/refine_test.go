package core

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"repro/internal/rng"
)

// concavePWL is a concave piecewise-linear function on [0, ∞): f(0) = v0
// and slope slopes[k] from knots[k] on (knots[0] = 0, slopes
// non-increasing, the last piece unbounded).
type concavePWL struct {
	v0     float64
	knots  []float64
	slopes []float64
}

func (f concavePWL) at(x float64) float64 {
	v := f.v0
	for k, s := range f.slopes {
		if k+1 == len(f.knots) || x <= f.knots[k+1] {
			return v + s*(x-f.knots[k])
		}
		v += s * (f.knots[k+1] - f.knots[k])
	}
	return v
}

// randomConcave draws a concave piecewise-linear function with up to five
// pieces whose knots lie in (0, eMax).
func randomConcave(src *rng.Source, eMax float64) concavePWL {
	pieces := 1 + src.Intn(5)
	f := concavePWL{v0: src.Uniform(-1, 1), knots: []float64{0}}
	for k := 1; k < pieces; k++ {
		f.knots = append(f.knots, src.Uniform(0, eMax))
	}
	slices.Sort(f.knots)
	for range f.knots {
		f.slopes = append(f.slopes, src.Uniform(-2, 2))
	}
	slices.SortFunc(f.slopes, func(a, b float64) int { return cmp.Compare(b, a) })
	return f
}

// randomSamples probes f at 0 and at 2–20 distinct points of (0, eMax),
// sorted by e.
func randomSamples(src *rng.Source, f concavePWL, eMax float64) []sample {
	s := []sample{{0, f.at(0)}}
	for i, k := 0, 2+src.Intn(19); i < k; i++ {
		e := src.Uniform(0, eMax)
		s = insertSample(s, e, f.at(e))
	}
	return s
}

// TestEnvelopeMaxBoundsConcave checks envelopeMax, the stop rule of
// RefineProfile's line searches, on random concave piecewise-linear
// functions: the bound is at least the function's maximum over [0, eMax]
// (taken on a dense grid and at every knot), never below a sample, and
// exact when the function is linear.
func TestEnvelopeMaxBoundsConcave(t *testing.T) {
	src := rng.New(3, "envelope")
	for trial := 0; trial < 2000; trial++ {
		eMax := src.Uniform(0.1, 10)
		f := randomConcave(src, eMax)
		s := randomSamples(src, f, eMax)
		bound := envelopeMax(s, eMax)

		top := math.Max(f.at(0), f.at(eMax))
		for _, x := range f.knots {
			top = math.Max(top, f.at(x))
		}
		for i := 0; i <= 2000; i++ {
			top = math.Max(top, f.at(eMax*float64(i)/2000))
		}
		if bound < top-1e-12*(1+math.Abs(top)) {
			t.Fatalf("trial %d: bound %.17g below the maximum %.17g of %+v sampled at %v", trial, bound, top, f, s)
		}
		for _, q := range s {
			if bound < q.v {
				t.Fatalf("trial %d: bound %.17g below the sample f(%g) = %.17g", trial, bound, q.e, q.v)
			}
		}

		line := concavePWL{v0: f.v0, knots: []float64{0}, slopes: f.slopes[:1]}
		s = randomSamples(src, line, eMax)
		want := math.Max(line.at(0), line.at(eMax))
		if got := envelopeMax(s, eMax); math.Abs(got-want) > 1e-12*(1+math.Abs(want)) {
			t.Fatalf("trial %d: linear f(e) = %g%+g·e bounded by %.17g, maximum %.17g", trial, line.v0, line.slopes[0], got, want)
		}
	}
}

// TestEnvelopeMaxNeedsTwoChords: a gap with no neighbouring chord is
// unbounded, so fewer than three samples prove nothing.
func TestEnvelopeMaxNeedsTwoChords(t *testing.T) {
	for _, s := range [][]sample{{{0, 1}}, {{0, 1}, {1, 0}}} {
		if got := envelopeMax(s, 2); !math.IsInf(got, 1) {
			t.Errorf("envelopeMax(%v) = %g, want +Inf", s, got)
		}
	}
}
