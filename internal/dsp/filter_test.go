package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestConvolveKnown(t *testing.T) {
	got := Convolve([]float64{1, 2, 3}, []float64{0, 1, 0.5})
	want := []float64{0, 1, 2.5, 4, 1.5}
	if len(got) != len(want) {
		t.Fatalf("length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if !approx(got[i], want[i], 1e-12) {
			t.Errorf("conv[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestConvolveFFTPathMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := make([]float64, 700)
	b := make([]float64, 100)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	// Direct (small product path).
	direct := make([]float64, len(a)+len(b)-1)
	for i, av := range a {
		for j, bv := range b {
			direct[i+j] += av * bv
		}
	}
	got := Convolve(a, b) // 700*100 = 70000 > threshold ⇒ FFT path
	for i := range direct {
		if math.Abs(got[i]-direct[i]) > 1e-8 {
			t.Fatalf("fft conv mismatch at %d: %g vs %g", i, got[i], direct[i])
		}
	}
}

func TestConvolveCommutative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := make([]float64, 5+rng.Intn(20))
		b := make([]float64, 5+rng.Intn(20))
		for i := range a {
			a[i] = rng.NormFloat64()
		}
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		ab := Convolve(a, b)
		ba := Convolve(b, a)
		for i := range ab {
			if math.Abs(ab[i]-ba[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestButterworthLowpassMagnitude(t *testing.T) {
	fs := 96000.0
	for _, order := range []int{1, 2, 3, 4, 6} {
		lp, err := DesignButterworthLowpass(1000, fs, order)
		if err != nil {
			t.Fatal(err)
		}
		// -3 dB at cutoff.
		if g := cmplx.Abs(lp.Response(1000, fs)); math.Abs(g-1/math.Sqrt2) > 0.02 {
			t.Errorf("order %d: |H(fc)| = %g, want ~0.707", order, g)
		}
		// ~1 at DC-ish.
		if g := cmplx.Abs(lp.Response(10, fs)); math.Abs(g-1) > 0.01 {
			t.Errorf("order %d: |H(10Hz)| = %g, want ~1", order, g)
		}
		// Roll-off ≈ 6·order dB/octave: at 4·fc attenuation ≥ order·12 - 3 dB.
		g := cmplx.Abs(lp.Response(4000, fs))
		wantDB := float64(order)*12 - 4
		if -20*math.Log10(g) < wantDB {
			t.Errorf("order %d: attenuation at 4fc = %g dB, want ≥ %g", order, -20*math.Log10(g), wantDB)
		}
	}
}

func TestButterworthFilterTimeDomain(t *testing.T) {
	fs := 96000.0
	lp, err := DesignButterworthLowpass(2000, fs, 4)
	if err != nil {
		t.Fatal(err)
	}
	n := 16384
	mix := Sine(1, 500, fs, 0, n)
	high := Sine(1, 20000, fs, 0, n)
	for i := range mix {
		mix[i] += high[i]
	}
	out := lp.Filter(mix)
	settled := out[n/2:]
	// The 20 kHz component must be crushed; the 500 Hz survives (the
	// causal filter phase-shifts it, so compare tone powers, not samples).
	p500 := Goertzel(settled, 500, fs) / float64(len(settled))
	p20k := Goertzel(settled, 20000, fs) / float64(len(settled))
	if p20k > 0.01*p500 {
		t.Errorf("20 kHz leakage: %g vs 500 Hz %g", p20k, p500)
	}
	if r := RMS(settled); math.Abs(r-1/math.Sqrt2) > 0.05 {
		t.Errorf("passband tone RMS %g, want ~0.707", r)
	}
}

func TestFiltFiltZeroPhase(t *testing.T) {
	fs := 96000.0
	lp, err := DesignButterworthLowpass(2000, fs, 4)
	if err != nil {
		t.Fatal(err)
	}
	n := 16384
	in := Sine(1, 500, fs, 0, n)
	out := lp.FiltFilt(in)
	if !slices.Equal(out, referenceFiltFilt(lp, in)) {
		t.Error("FiltFilt differs from Filter, reverse, Filter, reverse")
	}
	// Zero-phase: the filtered tone should align with the input (no lag).
	var dot, inE, outE float64
	for i := n / 4; i < 3*n/4; i++ {
		dot += in[i] * out[i]
		inE += in[i] * in[i]
		outE += out[i] * out[i]
	}
	corr := dot / math.Sqrt(inE*outE)
	if corr < 0.999 {
		t.Errorf("filtfilt correlation with input %g, want ~1 (zero phase)", corr)
	}
}

func TestIIRDesignErrors(t *testing.T) {
	if _, err := DesignButterworthLowpass(50000, 96000, 4); err == nil {
		t.Error("cutoff above Nyquist should error")
	}
	if _, err := DesignButterworthLowpass(100, 96000, 0); err == nil {
		t.Error("order 0 should error")
	}
}
