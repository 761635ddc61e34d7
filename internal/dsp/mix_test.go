package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"testing"
)

func TestOscillatorPhaseContinuity(t *testing.T) {
	// Sample i of the running oscillator must match a fresh sinusoid at
	// phase ωi, so the phase wrap introduces no discontinuity.
	o := NewOscillator(15000, 96000)
	want := Sine(1, 15000, 96000, 0, 200)
	for i, w := range want {
		if got := o.Next(); !approx(got, w, 1e-9) {
			t.Fatalf("sample %d = %g, want %g: oscillator is not phase continuous", i, got, w)
		}
	}
}

func TestSineAmplitudeAndFrequency(t *testing.T) {
	fs := 96000.0
	x := Sine(2.5, 15000, fs, 0, 9600)
	if r := RMS(x); math.Abs(r-2.5/math.Sqrt2) > 0.01 {
		t.Errorf("RMS = %g, want %g", r, 2.5/math.Sqrt2)
	}
	peaks := FindPeaks(x, fs, 1, 100, 0)
	if len(peaks) != 1 || math.Abs(peaks[0].Frequency-15000) > 20 {
		t.Errorf("peaks = %+v, want single 15 kHz", peaks)
	}
}

func TestDownconvertRecoversEnvelope(t *testing.T) {
	fs := 96000.0
	fc := 15000.0
	n := 19200
	// 15 kHz carrier with amplitude step 1.0 → 0.4 halfway (a backscatter
	// state change).
	x := make([]float64, n)
	w := 2 * math.Pi * fc / fs
	for i := range x {
		amp := 1.0
		if i >= n/2 {
			amp = 0.4
		}
		x[i] = amp * math.Sin(w*float64(i))
	}
	bb, err := DownconvertLP(x, 0, fc, fs, 2000, 4)
	if err != nil {
		t.Fatal(err)
	}
	env := Envelope(bb)
	// The complex envelope of A·sin is A/2 after mixing (half the energy
	// lands at 2fc and is filtered); scale by 2.
	first := 2 * Mean(env[n/8:3*n/8])
	second := 2 * Mean(env[5*n/8:7*n/8])
	if math.Abs(first-1.0) > 0.05 {
		t.Errorf("first level %g, want ~1.0", first)
	}
	if math.Abs(second-0.4) > 0.05 {
		t.Errorf("second level %g, want ~0.4", second)
	}
}

func TestDownconvertRejectsOtherCarrier(t *testing.T) {
	fs := 96000.0
	n := 19200
	x := Sine(1, 18000, fs, 0, n)
	bb, err := DownconvertLP(x, 0, 15000, fs, 1000, 4)
	if err != nil {
		t.Fatal(err)
	}
	env := Envelope(bb)
	if m := Mean(env[n/4 : 3*n/4]); m > 0.01 {
		t.Errorf("18 kHz leakage into 15 kHz channel: %g", m)
	}
}

func TestAmplitudeEnvelope(t *testing.T) {
	fs := 96000.0
	n := 9600
	x := Sine(0.8, 15000, fs, 0, n)
	env, err := AmplitudeEnvelope(x, fs, 1500, 4)
	if err != nil {
		t.Fatal(err)
	}
	m := Mean(env[n/4 : 3*n/4])
	if math.Abs(m-0.8) > 0.05 {
		t.Errorf("envelope %g, want ~0.8", m)
	}
}

func TestDecimate(t *testing.T) {
	x := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	got := Decimate(x, 3)
	want := []float64{0, 3, 6, 9}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("got[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	// Factor 1 copies.
	same := Decimate(x, 1)
	same[0] = 99
	if x[0] == 99 {
		t.Error("Decimate(x,1) must copy, not alias")
	}
}

func TestDecimateComplex(t *testing.T) {
	x := []complex128{0, 1i, 2i, 3i}
	got := DecimateComplex(x, 2)
	if len(got) != 2 || got[0] != 0 || got[1] != 2i {
		t.Errorf("DecimateComplex = %v", got)
	}
}

func TestCrossCorrelatePeakAtOffset(t *testing.T) {
	tmpl := []float64{1, -1, 1, 1, -1}
	x := make([]float64, 100)
	copy(x[40:], tmpl)
	corr := CrossCorrelate(x, tmpl)
	idx, _ := argMax(corr)
	if idx != 40 {
		t.Errorf("correlation peak at %d, want 40", idx)
	}
}

func TestNormalizedCrossCorrelateBounds(t *testing.T) {
	tmpl := []float64{1, -1, 1, 1, -1, -1, 1}
	x := make([]float64, 500)
	for i := range x {
		x[i] = math.Sin(float64(i) * 0.7)
	}
	copy(x[200:], tmpl)
	corr := NormalizedCrossCorrelate(x, tmpl)
	for i, v := range corr {
		if v > 1+1e-9 || v < -1-1e-9 {
			t.Fatalf("normalised corr out of bounds at %d: %g", i, v)
		}
	}
	idx, v := argMax(corr)
	if idx != 200 || v < 0.999 {
		t.Errorf("peak (%d, %g), want (200, ~1)", idx, v)
	}
}

func TestCrossCorrelateFFTPath(t *testing.T) {
	// Long enough to trigger the FFT path; verify against direct result.
	x := make([]float64, 2000)
	h := make([]float64, 64)
	for i := range x {
		x[i] = math.Sin(float64(i) * 0.31)
	}
	for i := range h {
		h[i] = math.Cos(float64(i) * 0.17)
	}
	got := CrossCorrelate(x, h) // 2000·64 = 128000 > threshold
	for i := 0; i < len(got); i += 97 {
		var want float64
		for j, hv := range h {
			want += x[i+j] * hv
		}
		if math.Abs(got[i]-want) > 1e-8 {
			t.Fatalf("fft corr mismatch at %d: %g vs %g", i, got[i], want)
		}
	}
}

func TestArgMaxEdgeCases(t *testing.T) {
	if idx, _ := argMax(nil); idx != -1 {
		t.Error("argMax(nil) index should be -1")
	}
	idx, v := ArgMaxAbs([]float64{1, -5, 3})
	if idx != 1 || v != -5 {
		t.Errorf("ArgMaxAbs = (%d, %g), want (1, -5)", idx, v)
	}
}

func TestStatsHelpers(t *testing.T) {
	if Mean(nil) != 0 || RMS(nil) != 0 {
		t.Error("empty stats should be 0")
	}
	if !approx(Mean([]float64{1, 2, 3}), 2, 1e-12) {
		t.Error("Mean wrong")
	}
	if !approx(RMS([]float64{3, 4}), math.Sqrt(12.5), 1e-12) {
		t.Error("RMS wrong")
	}
	dst := []float64{1, 1, 1}
	Add(dst, []float64{1, 2})
	if dst[0] != 2 || dst[1] != 3 || dst[2] != 1 {
		t.Error("Add wrong")
	}
}

// referenceDownconvertLP is the whole-signal front end DownconvertLP
// replaces: mix every sample with separate Cos and Sin, split I and Q,
// zero-phase filter each rail section by section through reversed
// copies, recombine, and only then keep [from:].
func referenceDownconvertLP(t *testing.T, x []float64, from int, fc, fs, cutoff float64, order int) []complex128 {
	t.Helper()
	lp, err := DesignButterworthLowpass(cutoff, fs, order)
	if err != nil {
		t.Fatal(err)
	}
	w := 2 * math.Pi * fc / fs
	re := make([]float64, len(x))
	im := make([]float64, len(x))
	for i, v := range x {
		ph := w * float64(i)
		re[i], im[i] = v*math.Cos(ph), -v*math.Sin(ph)
	}
	re, im = referenceFiltFilt(lp, re), referenceFiltFilt(lp, im)
	out := make([]complex128, len(x))
	for i := range out {
		out[i] = complex(re[i], im[i])
	}
	return out[from:]
}

// referenceFiltFilt is zero-phase filtering section by section
// through reversed copies: Filter, reverse, Filter, reverse.
func referenceFiltFilt(lp *IIR, v []float64) []float64 {
	fwd := lp.Filter(v)
	slices.Reverse(fwd)
	bwd := lp.Filter(fwd)
	slices.Reverse(bwd)
	return bwd
}

// gatedExchange is a reader exchange as the hydrophone sees it: a
// PWM-keyed downlink carrier 40x the uplink's, then, from gate on, the
// continuous carrier with a weak backscatter square wave and noise.
func gatedExchange(fc, fs float64, n, gate int) []float64 {
	rng := rand.New(rand.NewSource(7))
	x := make([]float64, n)
	w := 2 * math.Pi * fc / fs
	for i := range x {
		amp := 1 + 0.05*float64((i/96)%2)
		if i < gate {
			amp = 40 * float64((i/480)%3%2+1) / 2
		}
		x[i] = amp*math.Sin(w*float64(i)+0.3) + 0.01*rng.NormFloat64()
	}
	return x
}

// TestDownconvertLPMatchesWholeSignalFilter pins DownconvertLP's gated
// front end to the whole-signal reference: bit-identical at the
// channel cutoffs of the paper node's bitrates (8 × bitrate) and at
// fs/4, and within 1e-12 of the output peak at low cutoffs, where the
// cascade's poles sit close to z = 1 and the truncated history leaves
// a rounding floor.
func TestDownconvertLPMatchesWholeSignalFilter(t *testing.T) {
	const (
		fs   = 96000.0
		fc   = 15000.0
		n    = 54000
		gate = 24000
	)
	x := gatedExchange(fc, fs, n, gate)
	exact := []float64{8 * 496.5, 8 * 993, 8 * 1489.5, 8 * 2048, fs / 4}
	var low []float64
	for c := 200.0; c <= 3200; c += 500 {
		low = append(low, c)
	}
	for _, tc := range append(append([]float64{}, exact...), low...) {
		bitExact := tc >= exact[0]
		lp, err := DesignButterworthLowpass(tc, fs, 4)
		if err != nil {
			t.Fatal(err)
		}
		settle := lp.Settle()
		for _, from := range []int{0, settle / 2, gate, n - 1} {
			got, err := DownconvertLP(x, from, fc, fs, tc, 4)
			if err != nil {
				t.Fatal(err)
			}
			want := referenceDownconvertLP(t, x, from, fc, fs, tc, 4)
			if len(got) != len(want) {
				t.Fatalf("cutoff %g from %d: %d samples, want %d", tc, from, len(got), len(want))
			}
			peak, worst, differ := 0.0, 0.0, 0
			for i := range want {
				peak = max(peak, cmplx.Abs(want[i]))
				if got[i] != want[i] {
					differ++
					worst = max(worst, cmplx.Abs(got[i]-want[i]))
				}
			}
			switch {
			case bitExact && differ > 0:
				t.Errorf("cutoff %g from %d (settle %d): %d of %d samples differ (worst %.3g), want bit-identical",
					tc, from, settle, differ, len(want), worst)
			case worst > 1e-12*peak:
				t.Errorf("cutoff %g from %d (settle %d): worst difference %.3g of peak %.3g, want ≤ 1e-12",
					tc, from, settle, worst, peak)
			}
		}
	}
}

func TestDownconvertLPRejectsStartOutsideSignal(t *testing.T) {
	x := Sine(1, 15000, 96000, 0, 100)
	for _, from := range []int{-1, 101} {
		if _, err := DownconvertLP(x, from, 15000, 96000, 2000, 4); err == nil {
			t.Errorf("start %d: want an error", from)
		}
	}
	if bb, err := DownconvertLP(x, 100, 15000, 96000, 2000, 4); err != nil || len(bb) != 0 {
		t.Errorf("start at the end: %d samples, %v; want none and no error", len(bb), err)
	}
}
