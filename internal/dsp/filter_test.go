package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestWindowEndpoints(t *testing.T) {
	for _, w := range []Window{Hann, Blackman} {
		c := w.Coefficients(64)
		if math.Abs(c[0]) > 1e-9 || math.Abs(c[63]) > 1e-9 {
			t.Errorf("%v window should be ~0 at endpoints, got %g, %g", w, c[0], c[63])
		}
	}
	c := Rectangular.Coefficients(10)
	for _, v := range c {
		if v != 1 {
			t.Errorf("rectangular window should be all ones")
		}
	}
}

func TestWindowPeakAtCentre(t *testing.T) {
	for _, w := range []Window{Hann, Hamming, Blackman} {
		c := w.Coefficients(65)
		idx, _ := ArgMax(c)
		if idx != 32 {
			t.Errorf("%v window peak at %d, want 32", w, idx)
		}
		if math.Abs(c[32]-1) > 1e-9 {
			t.Errorf("%v window peak %g, want 1", w, c[32])
		}
	}
}

func TestWindowSingleCoefficient(t *testing.T) {
	for _, w := range []Window{Rectangular, Hann, Hamming, Blackman} {
		c := w.Coefficients(1)
		if len(c) != 1 || c[0] != 1 {
			t.Errorf("%v.Coefficients(1) = %v, want [1]", w, c)
		}
	}
}

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

func TestLowpassFIRResponse(t *testing.T) {
	fs := 96000.0
	fir, err := DesignLowpassFIR(5000, fs, 127, Hamming)
	if err != nil {
		t.Fatal(err)
	}
	// Passband tone passes with ~unit gain, stopband tone is attenuated.
	n := 8192
	pass := fir.Filter(Sine(1, 1000, fs, 0, n))
	stop := fir.Filter(Sine(1, 20000, fs, 0, n))
	gPass := RMS(pass[1000:n-1000]) / (1 / math.Sqrt2)
	gStop := RMS(stop[1000:n-1000]) / (1 / math.Sqrt2)
	if gPass < 0.95 || gPass > 1.05 {
		t.Errorf("passband gain %g, want ~1", gPass)
	}
	if gStop > 0.01 {
		t.Errorf("stopband gain %g, want < 0.01", gStop)
	}
}

func TestBandpassFIRResponse(t *testing.T) {
	fs := 96000.0
	fir, err := DesignBandpassFIR(14000, 16000, fs, 255, Hamming)
	if err != nil {
		t.Fatal(err)
	}
	n := 8192
	in := fir.Filter(Sine(1, 15000, fs, 0, n))
	below := fir.Filter(Sine(1, 10000, fs, 0, n))
	above := fir.Filter(Sine(1, 20000, fs, 0, n))
	gIn := RMS(in[1000:n-1000]) * math.Sqrt2
	gBelow := RMS(below[1000:n-1000]) * math.Sqrt2
	gAbove := RMS(above[1000:n-1000]) * math.Sqrt2
	if gIn < 0.9 || gIn > 1.1 {
		t.Errorf("in-band gain %g, want ~1", gIn)
	}
	if gBelow > 0.05 || gAbove > 0.05 {
		t.Errorf("out-of-band gains %g/%g, want < 0.05", gBelow, gAbove)
	}
}

func TestFIRDesignErrors(t *testing.T) {
	if _, err := DesignLowpassFIR(50000, 96000, 63, Hamming); err == nil {
		t.Error("cutoff above Nyquist should error")
	}
	if _, err := DesignLowpassFIR(-1, 96000, 63, Hamming); err == nil {
		t.Error("negative cutoff should error")
	}
	if _, err := DesignLowpassFIR(1000, 96000, 1, Hamming); err == nil {
		t.Error("too few taps should error")
	}
	if _, err := DesignBandpassFIR(16000, 14000, 96000, 63, Hamming); err == nil {
		t.Error("inverted band edges should error")
	}
	if _, err := NewFIR(nil); err == nil {
		t.Error("empty taps should error")
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

func TestButterworthHighpassMagnitude(t *testing.T) {
	fs := 96000.0
	hp, err := DesignButterworthHighpass(10000, fs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if g := cmplx.Abs(hp.Response(10000, fs)); math.Abs(g-1/math.Sqrt2) > 0.02 {
		t.Errorf("|H(fc)| = %g, want ~0.707", g)
	}
	if g := cmplx.Abs(hp.Response(30000, fs)); math.Abs(g-1) > 0.02 {
		t.Errorf("|H(3fc)| = %g, want ~1", g)
	}
	if g := cmplx.Abs(hp.Response(2500, fs)); g > 0.02 {
		t.Errorf("|H(fc/4)| = %g, want ≪ 1", g)
	}
}

func TestButterworthBandpass(t *testing.T) {
	fs := 96000.0
	bp, err := DesignButterworthBandpass(14000, 16000, fs, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g := cmplx.Abs(bp.Response(15000, fs)); g < 0.95 {
		t.Errorf("centre gain %g, want ~1", g)
	}
	for _, f := range []float64{5000, 11000, 19000, 30000} {
		if g := cmplx.Abs(bp.Response(f, fs)); g > 0.12 {
			t.Errorf("gain at %g Hz = %g, want small", f, g)
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
	if _, err := DesignButterworthBandpass(5, 4, 96000, 2); err == nil {
		t.Error("inverted edges should error")
	}
}

func TestMovingAverage(t *testing.T) {
	x := []float64{1, 1, 1, 1, 1}
	got := MovingAverage(x, 3)
	for i, v := range got {
		if !approx(v, 1, 1e-12) {
			t.Errorf("constant input: out[%d] = %g", i, v)
		}
	}
	got = MovingAverage([]float64{0, 3, 0}, 3)
	if !approx(got[1], 1, 1e-12) {
		t.Errorf("centre = %g, want 1", got[1])
	}
}
