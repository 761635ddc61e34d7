package dsp

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestFFTKnownDelta(t *testing.T) {
	// FFT of a delta at index 0 is all ones.
	x := make([]complex128, 8)
	x[0] = 1
	X := FFT(x)
	for k, v := range X {
		if !approx(real(v), 1, 1e-12) || !approx(imag(v), 0, 1e-12) {
			t.Errorf("bin %d: got %v, want 1", k, v)
		}
	}
}

func TestFFTKnownSine(t *testing.T) {
	// A pure sine at bin 3 of a 64-point FFT should put energy only in
	// bins 3 and 61 (N-3).
	n := 64
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(math.Sin(2*math.Pi*3*float64(i)/float64(n)), 0)
	}
	X := FFT(x)
	for k, v := range X {
		mag := cmplx.Abs(v)
		if k == 3 || k == n-3 {
			if !approx(mag, float64(n)/2, 1e-9) {
				t.Errorf("bin %d: |X| = %v, want %v", k, mag, float64(n)/2)
			}
		} else if mag > 1e-9 {
			t.Errorf("bin %d: |X| = %v, want 0", k, mag)
		}
	}
}

func TestFFTIFFTRoundTripPow2(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 64, 256, 1024} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		y := IFFT(FFT(x))
		for i := range x {
			if cmplx.Abs(x[i]-y[i]) > 1e-9 {
				t.Fatalf("n=%d: round trip mismatch at %d: %v vs %v", n, i, x[i], y[i])
			}
		}
	}
}

func TestFFTIFFTRoundTripArbitraryN(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{3, 5, 7, 12, 100, 365, 999} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		y := IFFT(FFT(x))
		for i := range x {
			if cmplx.Abs(x[i]-y[i]) > 1e-8 {
				t.Fatalf("n=%d: round trip mismatch at %d: %v vs %v", n, i, x[i], y[i])
			}
		}
	}
}

func TestBluesteinMatchesRadix2(t *testing.T) {
	// Zero-padding a power-of-two signal through Bluestein isn't directly
	// comparable, but a DFT computed naively should match both paths.
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{4, 6, 8, 9, 16, 21} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		want := naiveDFT(x)
		got := FFT(x)
		for k := range want {
			if cmplx.Abs(want[k]-got[k]) > 1e-8 {
				t.Fatalf("n=%d bin %d: FFT=%v, naive=%v", n, k, got[k], want[k])
			}
		}
	}
}

func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for j := 0; j < n; j++ {
			s += x[j] * cmplx.Exp(complex(0, -2*math.Pi*float64(k*j)/float64(n)))
		}
		out[k] = s
	}
	return out
}

func TestParseval(t *testing.T) {
	// Σ|x|² == (1/N)·Σ|X|² — property-based over random signals.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 16 + rng.Intn(64)
		x := make([]complex128, n)
		var tEnergy float64
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			tEnergy += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
		}
		X := FFT(x)
		var fEnergy float64
		for _, v := range X {
			fEnergy += real(v)*real(v) + imag(v)*imag(v)
		}
		fEnergy /= float64(n)
		return math.Abs(tEnergy-fEnergy) <= 1e-6*math.Max(1, tEnergy)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestFFTLinearity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 32
		a := make([]complex128, n)
		b := make([]complex128, n)
		sum := make([]complex128, n)
		for i := range a {
			a[i] = complex(rng.NormFloat64(), 0)
			b[i] = complex(rng.NormFloat64(), 0)
			sum[i] = a[i] + b[i]
		}
		A, B, S := FFT(a), FFT(b), FFT(sum)
		for k := range S {
			if cmplx.Abs(S[k]-(A[k]+B[k])) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestPowerSpectrumPeak(t *testing.T) {
	fs := 96000.0
	n := 4096
	x := Sine(1.0, 15000, fs, 0, n)
	ps := PowerSpectrum(x)
	idx, _ := argMax(ps)
	got := BinFrequency(idx, n, fs)
	if math.Abs(got-15000) > fs/float64(n)+1 {
		t.Errorf("peak at %g Hz, want ~15000", got)
	}
}

func TestFindPeaksTwoTones(t *testing.T) {
	fs := 96000.0
	n := 8192
	x := Sine(1.0, 15000, fs, 0, n)
	y := Sine(0.8, 18000, fs, 0.3, n)
	for i := range x {
		x[i] += y[i]
	}
	peaks := FindPeaks(x, fs, 2, 1000, 1)
	if len(peaks) != 2 {
		t.Fatalf("got %d peaks, want 2", len(peaks))
	}
	if math.Abs(peaks[0].Frequency-15000) > 50 {
		t.Errorf("strongest peak at %g, want ~15000", peaks[0].Frequency)
	}
	if math.Abs(peaks[1].Frequency-18000) > 50 {
		t.Errorf("second peak at %g, want ~18000", peaks[1].Frequency)
	}
}

func TestFindPeaksSeparation(t *testing.T) {
	fs := 96000.0
	n := 8192
	x := Sine(1.0, 15000, fs, 0, n)
	// Close tone 200 Hz away must be suppressed by 1 kHz separation.
	y := Sine(0.9, 15200, fs, 0, n)
	for i := range x {
		x[i] += y[i]
	}
	peaks := FindPeaks(x, fs, 5, 1000, 1)
	for i := 0; i < len(peaks); i++ {
		for j := i + 1; j < len(peaks); j++ {
			if math.Abs(peaks[i].Frequency-peaks[j].Frequency) < 1000 {
				t.Errorf("peaks %g and %g violate separation", peaks[i].Frequency, peaks[j].Frequency)
			}
		}
	}
}

func TestGoertzelMatchesFFTBin(t *testing.T) {
	fs := 96000.0
	n := 4096
	x := Sine(2.0, 12000, fs, 0.7, n)
	want := cmplx.Abs(FFTReal(x)[12000*n/int(fs)]) // 12 kHz is exactly bin 512
	got := Goertzel(x, 12000, fs)
	if math.Abs(got-want)/want > 1e-6 {
		t.Errorf("Goertzel = %g, FFT bin = %g", got, want)
	}
}

func TestNextPow2(t *testing.T) {
	cases := []struct{ in, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {1023, 1024}, {1024, 1024}, {1025, 2048},
	}
	for _, tc := range cases {
		if got := NextPow2(tc.in); got != tc.want {
			t.Errorf("NextPow2(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestEmptyInputs(t *testing.T) {
	if FFT(nil) != nil {
		t.Error("FFT(nil) should be nil")
	}
	if IFFT(nil) != nil {
		t.Error("IFFT(nil) should be nil")
	}
	if FFTReal(nil) != nil {
		t.Error("FFTReal(nil) should be nil")
	}
	if Goertzel(nil, 100, 1000) != 0 {
		t.Error("Goertzel(nil) should be 0")
	}
	if FindPeaks(nil, 1000, 3, 10, 0) != nil {
		t.Error("FindPeaks(nil) should be nil")
	}
}

func TestAnalyticSignalRealPart(t *testing.T) {
	// Re{analytic(x)} == x for any real signal.
	rng := rand.New(rand.NewSource(9))
	x := make([]float64, 1000)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	a := AnalyticSignal(x)
	if len(a) != len(x) {
		t.Fatalf("length %d, want %d", len(a), len(x))
	}
	for i := range x {
		if math.Abs(real(a[i])-x[i]) > 1e-9 {
			t.Fatalf("Re{analytic}[%d] = %g, want %g", i, real(a[i]), x[i])
		}
	}
}

func TestAnalyticSignalQuadrature(t *testing.T) {
	// analytic(cos) = cos + j·sin = e^{jωt}: constant magnitude, and the
	// imaginary part is the 90°-lagged copy.
	fs := 96000.0
	n := 4096
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Cos(2 * math.Pi * 15000 * float64(i) / fs)
	}
	a := AnalyticSignal(x)
	for i := n / 8; i < 7*n/8; i++ { // away from FFT edge effects
		mag := cmplx.Abs(a[i])
		if math.Abs(mag-1) > 0.02 {
			t.Fatalf("|analytic|[%d] = %g, want ~1", i, mag)
		}
		wantIm := math.Sin(2 * math.Pi * 15000 * float64(i) / fs)
		if math.Abs(imag(a[i])-wantIm) > 0.02 {
			t.Fatalf("Im[%d] = %g, want %g", i, imag(a[i]), wantIm)
		}
	}
}

func TestAnalyticSignalPhaseShift(t *testing.T) {
	// Multiplying the analytic signal by e^{jφ} phase-shifts the carrier:
	// Re{e^{jπ/2}·analytic(cos)} = −sin.
	fs := 96000.0
	n := 4096
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Cos(2 * math.Pi * 12000 * float64(i) / fs)
	}
	a := AnalyticSignal(x)
	rot := cmplx.Exp(complex(0, math.Pi/2))
	for i := n / 8; i < 7*n/8; i++ {
		got := real(rot * a[i])
		want := -math.Sin(2 * math.Pi * 12000 * float64(i) / fs)
		if math.Abs(got-want) > 0.02 {
			t.Fatalf("rotated[%d] = %g, want %g", i, got, want)
		}
	}
}

// fullSpectrumAnalytic is the analytic signal by one full-size complex
// transform pair (negative frequencies zeroed, positive doubled, DC and
// Nyquist kept) — the method Hilbert's half-size packing replaces, kept
// here as its reference.
func fullSpectrumAnalytic(x []float64) []complex128 {
	m := NextPow2(len(x))
	buf := make([]complex128, m)
	for i, v := range x {
		buf[i] = complex(v, 0)
	}
	fftRadix2(buf, false)
	for k := 1; k < m/2; k++ {
		buf[k] *= 2
	}
	for k := m/2 + 1; k < m; k++ {
		buf[k] = 0
	}
	fftRadix2(buf, true)
	out := buf[:len(x)]
	for i := range out {
		out[i] /= complex(float64(m), 0)
	}
	return out
}

func TestHilbertMatchesFullSpectrum(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	sizes := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 1000, 4097, 73575, 107313, 1 << 17}
	for _, n := range sizes {
		// A keyed carrier with a noisy tail, like the simulator's field at
		// the node, so both narrowband and broadband content are covered.
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			if i%3000 < 2000 {
				x[i] += 40 * math.Cos(2*math.Pi*15000*float64(i)/96000+0.3)
			}
		}
		ref := fullSpectrumAnalytic(x)
		h := Hilbert(x)
		a := AnalyticSignal(x)
		if len(h) != n || len(a) != n {
			t.Fatalf("n=%d: lengths %d, %d", n, len(h), len(a))
		}
		peak := 0.0
		for _, v := range ref {
			peak = math.Max(peak, cmplx.Abs(v))
		}
		worst := 0.0
		for i := range x {
			if real(a[i]) != x[i] || imag(a[i]) != h[i] {
				t.Fatalf("n=%d: AnalyticSignal[%d] = %v, want (x, h) = (%v, %v)", n, i, a[i], x[i], h[i])
			}
			worst = math.Max(worst, cmplx.Abs(a[i]-ref[i]))
		}
		if worst > 1e-13*peak {
			t.Errorf("n=%d: max |Δ| = %.3g, above 1e-13 of peak %.3g", n, worst, peak)
		}
		t.Logf("n=%d: max |Δ| / peak = %.2g", n, worst/peak)
	}
}

func TestAnalyticSignalEmpty(t *testing.T) {
	if AnalyticSignal(nil) != nil {
		t.Error("AnalyticSignal(nil) should be nil")
	}
}

// directDFTBin is X[k] by the O(n) definition, with exact reduced
// angles (k·i mod n) and compensated summation, so its own error sits
// well below the transform's.
func directDFTBin(x []complex128, k int) complex128 {
	n := int64(len(x))
	var re, im, cre, cim float64
	add := func(sum, comp *float64, v float64) {
		t := *sum + v
		if math.Abs(*sum) >= math.Abs(v) {
			*comp += (*sum - t) + v
		} else {
			*comp += (v - t) + *sum
		}
		*sum = t
	}
	for i, v := range x {
		s, c := math.Sincos(-2 * math.Pi * float64(int64(k)*int64(i)%n) / float64(n))
		p := v * complex(c, s)
		add(&re, &cre, real(p))
		add(&im, &cim, imag(p))
	}
	return complex(re+cre, im+cim)
}

// TestFFTAccuracyLarge bounds the radix-2 transform against a direct DFT
// at the receiver's largest transform size: on 32 sampled bins, low and
// high, |X[k] − DFT[k]| ≤ 1e-14·‖x‖₂ (about 1e-15 measured). A twiddle
// recurrence (w *= wStep) reaches ~5e-12 at the high bins of this size.
func TestFFTAccuracyLarge(t *testing.T) {
	const n = 1 << 18
	rng := rand.New(rand.NewSource(7))
	x := make([]complex128, n)
	var norm float64
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		norm += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
	}
	norm = math.Sqrt(norm)
	X := FFT(x)
	bins := []int{0, 1, 3, n/4 - 1, n / 4, n/2 - 1, n / 2, n/2 + 1, 3 * n / 4, n - 2, n - 1}
	for len(bins) < 32 {
		bins = append(bins, rng.Intn(n))
	}
	for _, k := range bins {
		if e := cmplx.Abs(X[k]-directDFTBin(x, k)) / norm; e > 1e-14 {
			t.Errorf("bin %d: relative error %.3g > 1e-14", k, e)
		}
	}
}

// TestFFTIFFTRoundTripLarge bounds IFFT(FFT(x)) − x at 2^18 points for
// unit-variance input (about 3e-15 measured; a twiddle recurrence
// reaches ~2e-11).
func TestFFTIFFTRoundTripLarge(t *testing.T) {
	const n = 1 << 18
	rng := rand.New(rand.NewSource(8))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	y := IFFT(FFT(x))
	worst := 0.0
	for i := range x {
		worst = math.Max(worst, cmplx.Abs(y[i]-x[i]))
	}
	if worst > 1e-13 {
		t.Fatalf("round-trip error %.3g > 1e-13", worst)
	}
}

// TestFFTPlanConcurrentFirstUse builds plans from many goroutines at
// once, at mixed sizes, and checks every transform matches the serial
// result bit for bit. Run it under -race.
func TestFFTPlanConcurrentFirstUse(t *testing.T) {
	sizes := []int{2, 8, 64, 512, 4096, 1 << 14, 1 << 16}
	rng := rand.New(rand.NewSource(9))
	inputs := make([][]complex128, len(sizes))
	want := make([][]complex128, len(sizes))
	for i, n := range sizes {
		inputs[i] = make([]complex128, n)
		for j := range inputs[i] {
			inputs[i][j] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		want[i] = FFT(inputs[i])
	}
	// A fresh table, so the workers race to build it.
	keep := capTwiddles
	defer func() { capTwiddles = keep }()
	capTwiddles = sync.OnceValue(buildCapTwiddles)
	const workers = 16
	var wg sync.WaitGroup
	errs := make(chan string, workers*len(sizes))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range sizes {
				i := (k + w) % len(sizes) // each worker starts at a different size
				got := FFT(inputs[i])
				for j := range got {
					if got[j] != want[i][j] {
						errs <- fmt.Sprintf("worker %d size %d: bin %d = %v, want %v", w, sizes[i], j, got[j], want[i][j])
						break
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
