package dsp

import (
	"math"
	"math/rand"
	"testing"
)

func TestCrossCorrelatePeakLocatesTemplate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tmpl := make([]float64, 32)
	for i := range tmpl {
		tmpl[i] = rng.NormFloat64()
	}
	const offset = 211
	x := make([]float64, 512)
	for i := range x {
		x[i] = 0.05 * rng.NormFloat64()
	}
	for i, v := range tmpl {
		x[offset+i] += v
	}
	out := CrossCorrelate(x, tmpl)
	if want := len(x) - len(tmpl) + 1; len(out) != want {
		t.Fatalf("output length %d, want %d", len(out), want)
	}
	idx, val := argMax(out)
	if idx != offset {
		t.Errorf("peak at %d, want %d", idx, offset)
	}
	// At the aligned lag the correlation approaches the template energy.
	e := 0.0
	for _, v := range tmpl {
		e += v * v
	}
	if math.Abs(val-e) > 0.2*e {
		t.Errorf("peak value %g far from template energy %g", val, e)
	}
}

func TestCrossCorrelateMatchesDirectComputation(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	h := []float64{1, -1}
	out := CrossCorrelate(x, h)
	want := []float64{-1, -1, -1, -1} // x[i]-x[i+1]
	if len(out) != len(want) {
		t.Fatalf("length %d, want %d", len(out), len(want))
	}
	for i := range want {
		if math.Abs(out[i]-want[i]) > 1e-12 {
			t.Errorf("out[%d] = %g, want %g", i, out[i], want[i])
		}
	}
}

func TestCrossCorrelateFFTPathAgreesWithDirect(t *testing.T) {
	// Force the FFT branch (len(x)*len(h) > 64k) and compare against the
	// naive O(n·m) sum.
	rng := rand.New(rand.NewSource(3))
	x := make([]float64, 1200)
	h := make([]float64, 80)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	for i := range h {
		h[i] = rng.NormFloat64()
	}
	got := CrossCorrelate(x, h)
	for i := range got {
		var s float64
		for j, hv := range h {
			s += x[i+j] * hv
		}
		if math.Abs(got[i]-s) > 1e-6 {
			t.Fatalf("FFT path out[%d] = %g, direct %g", i, got[i], s)
		}
	}
}

func TestCrossCorrelateDegenerateInputs(t *testing.T) {
	if out := CrossCorrelate([]float64{1, 2}, nil); out != nil {
		t.Errorf("empty template: got %v, want nil", out)
	}
	if out := CrossCorrelate([]float64{1}, []float64{1, 2}); out != nil {
		t.Errorf("template longer than signal: got %v, want nil", out)
	}
}

func TestNormalizedCrossCorrelatePerfectMatchScoresOne(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tmpl := make([]float64, 48)
	for i := range tmpl {
		tmpl[i] = rng.NormFloat64()
	}
	const offset = 100
	x := make([]float64, 300)
	// Embed a scaled and DC-shifted copy: NCC must still score 1 there.
	for i, v := range tmpl {
		x[offset+i] = 3*v + 7
	}
	out := NormalizedCrossCorrelate(x, tmpl)
	idx, val := argMax(out)
	if idx != offset {
		t.Errorf("peak at %d, want %d", idx, offset)
	}
	if math.Abs(val-1) > 1e-9 {
		t.Errorf("peak score %g, want 1 (amplitude/offset invariance)", val)
	}
	for i, v := range out {
		if v > 1+1e-9 || v < -1-1e-9 {
			t.Errorf("out[%d] = %g outside [-1, 1]", i, v)
		}
	}
}

func TestNormalizedCrossCorrelateInvertedMatchScoresMinusOne(t *testing.T) {
	tmpl := []float64{1, -1, 1, 1, -1, -1, 1, -1}
	x := make([]float64, 64)
	const offset = 20
	for i, v := range tmpl {
		x[offset+i] = -v
	}
	out := NormalizedCrossCorrelate(x, tmpl)
	idx, val := ArgMaxAbs(out)
	if idx != offset {
		t.Errorf("peak at %d, want %d", idx, offset)
	}
	if math.Abs(val+1) > 1e-9 {
		t.Errorf("inverted match scored %g, want -1", val)
	}
}

func TestNormalizedCrossCorrelateZeroVarianceWindow(t *testing.T) {
	// A constant window has zero variance; the score must be 0 there,
	// not NaN.
	tmpl := []float64{1, -1, 1, -1}
	x := []float64{5, 5, 5, 5, 5, 1, -1, 1, -1, 5}
	out := NormalizedCrossCorrelate(x, tmpl)
	for i, v := range out {
		if math.IsNaN(v) {
			t.Fatalf("out[%d] is NaN", i)
		}
	}
	if out[0] != 0 {
		t.Errorf("constant window scored %g, want 0", out[0])
	}
}

func TestArgMaxAndArgMaxAbs(t *testing.T) {
	// argMax is the test-local helper the peak-finding tests rely on.
	if idx, val := argMax(nil); idx != -1 || !math.IsInf(val, -1) {
		t.Errorf("argMax(nil) = (%d, %g), want (-1, -Inf)", idx, val)
	}
	if idx, val := argMax([]float64{-3, 2, -1}); idx != 1 || val != 2 {
		t.Errorf("argMax = (%d, %g), want (1, 2)", idx, val)
	}
	// ArgMaxAbs returns the signed value at the abs-max position.
	if idx, val := ArgMaxAbs([]float64{-3, 2, -1}); idx != 0 || val != -3 {
		t.Errorf("ArgMaxAbs = (%d, %g), want (0, -3)", idx, val)
	}
	if idx, _ := ArgMaxAbs(nil); idx != -1 {
		t.Errorf("ArgMaxAbs(nil) index %d, want -1", idx)
	}
}

// argMax returns the index and value of the largest element of x, or
// (-1, -Inf) for empty input.
func argMax(x []float64) (int, float64) {
	idx, best := -1, math.Inf(-1)
	for i, v := range x {
		if v > best {
			idx, best = i, v
		}
	}
	return idx, best
}
