// Package dsp implements the signal-processing primitives the PAB receiver
// chain is built from: FFTs, Butterworth low-pass filters,
// mixing/downconversion, envelope detection and correlation.
//
// Everything operates on float64 (real) or complex128 sample slices.
// The receive chain and the simulator spend much of their time here: in
// the FFT (behind carrier detection and the simulator's Hilbert
// transform), in mixing and in the Butterworth channel filter. The
// kernels favour numerical robustness first (twiddles from a table, not a
// drifting recurrence), then speed.
package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"sync"
)

// FFT returns the discrete Fourier transform of x. The input may be of any
// length: power-of-two lengths use an iterative radix-2 Cooley-Tukey
// transform, other lengths use Bluestein's chirp-z algorithm. The input
// slice is not modified.
func FFT(x []complex128) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	out := make([]complex128, n)
	copy(out, x)
	if n&(n-1) == 0 {
		fftRadix2(out, false)
		return out
	}
	return bluestein(out, false)
}

// IFFT returns the inverse discrete Fourier transform of x, normalised by
// 1/N so that IFFT(FFT(x)) == x.
func IFFT(x []complex128) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	out := make([]complex128, n)
	copy(out, x)
	if n&(n-1) == 0 {
		fftRadix2(out, true)
	} else {
		out = bluestein(out, true)
	}
	inv := complex(1/float64(n), 0)
	for i := range out {
		out[i] *= inv
	}
	return out
}

// FFTReal converts x to complex and returns its DFT.
func FFTReal(x []float64) []complex128 {
	c := make([]complex128, len(x))
	for i, v := range x {
		c[i] = complex(v, 0)
	}
	if len(c) == 0 {
		return nil
	}
	if len(c)&(len(c)-1) == 0 {
		fftRadix2(c, false)
		return c
	}
	return bluestein(c, false)
}

// fftRadix2 transforms x in place. len(x) must be a power of two.
// When inverse is true the conjugate transform is computed (without the
// 1/N normalisation).
//
// It is a decimation-in-time transform on bit-reversed input: one
// multiply-free pass for the first two radix-2 stages, then the rest in
// pairs (radix-2²), so a long transform makes half as many passes over
// memory. Twiddles come from twiddlesFor.
func fftRadix2(x []complex128, inverse bool) {
	n := len(x)
	if n <= 1 {
		return
	}
	// Bit-reversal permutation.
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := range x {
		if j := int(bits.Reverse64(uint64(i)) >> shift); j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	if n == 2 {
		x[0], x[1] = x[0]+x[1], x[0]-x[1]
		return
	}
	// rot is the quarter turn W_4 = −j (+j for the inverse); sign flips
	// the table's twiddles to their conjugates for the inverse.
	rot, sign := complex(0, -1), 1.0
	if inverse {
		rot, sign = complex(0, 1), -1
	}
	// Stages 2 and 4: twiddles ±1 and rot, no multiplies.
	for start := 0; start < n; start += 4 {
		q := x[start : start+4 : start+4]
		a0, a1 := q[0]+q[1], q[0]-q[1]
		b0, b1 := q[2]+q[3], (q[2]-q[3])*rot
		q[0], q[2] = a0+b0, a0-b0
		q[1], q[3] = a1+b1, a1-b1
	}
	tab := twiddlesFor(n)
	defer releaseTwiddles(tab)
	half := 4 // half-size of the next stage
	if bits.TrailingZeros(uint(n))%2 == 1 {
		// An odd stage count: one radix-2 stage, then pairs.
		radix2Stage(x, tab, half, sign)
		half <<= 1
	}
	for ; half < n; half <<= 2 {
		radix4Stages(x, tab, half, sign)
	}
}

// twiddle returns e^(∓2πik/size) for k < size/2 from the shared table:
// entry k·stride below the quarter turn, the quarter turn times entry
// (k−size/4)·stride above it. sign −1 conjugates (the inverse).
func twiddle(tw []complex128, k, quarter, stride int, sign float64) complex128 {
	if k < quarter {
		t := tw[k*stride]
		return complex(real(t), sign*imag(t))
	}
	t := tw[(k-quarter)*stride]
	return complex(imag(t), -sign*real(t))
}

// radix2Stage runs the radix-2 stage that merges blocks of half
// samples into blocks of 2·half.
func radix2Stage(x []complex128, tab *twiddleTable, half int, sign float64) {
	stride := tab.n / (2 * half)
	for start := 0; start < len(x); start += 2 * half {
		lo := x[start : start+half]
		hi := x[start+half : start+2*half]
		hi = hi[:len(lo)]
		for k := range lo {
			u := hi[k] * twiddle(tab.tw, k, half/2, stride, sign)
			lo[k], hi[k] = lo[k]+u, lo[k]-u
		}
	}
}

// radix4Stages runs the two radix-2 stages that merge blocks of h
// samples into blocks of 4h in one pass: stage one (twiddle
// w1 = W_2h^k) on the pairs (a, b) and (c, d), stage two (w2 = W_4h^k,
// and W_4h^(k+h) = W_4·w2, a quarter turn) on (a', c') and (b', d').
func radix4Stages(x []complex128, tab *twiddleTable, h int, sign float64) {
	n := len(x)
	s1, s2 := tab.n/(2*h), tab.n/(4*h)
	if h < n/(4*h) {
		// Many short blocks: walk each twiddle pair across the blocks.
		for k := 0; k < h; k++ {
			w1 := twiddle(tab.tw, k, h/2, s1, sign)
			w2 := twiddle(tab.tw, k, h, s2, sign)
			for i := k; i < n; i += 4 * h {
				bw, dw := x[i+h]*w1, x[i+3*h]*w1
				a1, b1 := x[i]+bw, x[i]-bw
				c1, d1 := x[i+2*h]+dw, x[i+2*h]-dw
				cw, dv := c1*w2, d1*w2
				dv = complex(sign*imag(dv), -sign*real(dv))
				x[i], x[i+2*h] = a1+cw, a1-cw
				x[i+h], x[i+3*h] = b1+dv, b1-dv
			}
		}
		return
	}
	for start := 0; start < n; start += 4 * h {
		a := x[start : start+h]
		b := x[start+h : start+2*h]
		c := x[start+2*h : start+3*h]
		d := x[start+3*h : start+4*h]
		b, c, d = b[:len(a)], c[:len(a)], d[:len(a)]
		for k := range a {
			w1 := twiddle(tab.tw, k, h/2, s1, sign)
			w2 := twiddle(tab.tw, k, h, s2, sign)
			bw, dw := b[k]*w1, d[k]*w1
			a1, b1 := a[k]+bw, a[k]-bw
			c1, d1 := c[k]+dw, c[k]-dw
			cw, dv := c1*w2, d1*w2
			dv = complex(sign*imag(dv), -sign*real(dv))
			a[k], c[k] = a1+cw, a1-cw
			b[k], d[k] = b1+dv, b1-dv
		}
	}
}

// twiddleTable holds the forward twiddles e^(−2πik/n), k < n/4, of one
// power-of-two size n; the rest of the half circle follows by a
// quarter-turn rotation, and every smaller size reads the table with a
// stride (its twiddle k is entry k·(n/size), the same Sincos argument
// bit for bit, since scaling by a power of two is exact). A table costs
// 4n bytes.
type twiddleTable struct {
	n  int
	tw []complex128
}

// twiddleCap is the largest size whose twiddles are kept for the life
// of the process, in a 64 KiB table. Each entry comes from math.Sincos;
// a running product w *= wStep drifts by ~k ulps over a long stage.
// Every larger table is derived from this one (twiddlesFor), so the
// value fixes the bits of every transform above it, the simulator's
// Hilbert transform included.
const twiddleCap = 1 << 14

// capTwiddles is built on first use; sync.OnceValue makes concurrent
// first use (the simulator runs exchanges on parallel workers) safe.
var capTwiddles = sync.OnceValue(buildCapTwiddles)

func buildCapTwiddles() *twiddleTable {
	t := &twiddleTable{n: twiddleCap, tw: make([]complex128, twiddleCap/4)}
	for k := range t.tw {
		sin, cos := math.Sincos(-2 * math.Pi * float64(k) / twiddleCap)
		t.tw[k] = complex(cos, sin)
	}
	return t
}

// largeTwiddles pools the tables of sizes above twiddleCap, one pool
// per log2(size): a simulator running many large transforms reuses
// them, and the collector reclaims them once large transforms stop, so
// they are not a standing cost to processes that only decode.
var largeTwiddles [33]sync.Pool

// twiddlesFor returns a table covering size n, a power of two ≥ 4; pass
// it to releaseTwiddles after the transform. Above twiddleCap (the
// simulator's analytic signal) the table is built from the kept one:
// with r = n/twiddleCap and k = q·r + j,
// e^(−2πik/n) = e^(−2πiq/twiddleCap)·e^(−2πij/n), one multiply per
// entry and r Sincos calls, within an ulp or two of Sincos.
func twiddlesFor(n int) *twiddleTable {
	base := capTwiddles()
	if n <= twiddleCap {
		return base
	}
	if t, ok := largeTwiddles[bits.TrailingZeros(uint(n))].Get().(*twiddleTable); ok {
		return t
	}
	shift := uint(bits.TrailingZeros(uint(n / twiddleCap)))
	fine := make([]complex128, n/twiddleCap)
	for j := range fine {
		sin, cos := math.Sincos(-2 * math.Pi * float64(j) / float64(n))
		fine[j] = complex(cos, sin)
	}
	t := &twiddleTable{n: n, tw: make([]complex128, n/4)}
	for k := range t.tw {
		t.tw[k] = base.tw[k>>shift] * fine[k&(len(fine)-1)]
	}
	return t
}

// releaseTwiddles returns a table from twiddlesFor.
func releaseTwiddles(t *twiddleTable) {
	if t.n > twiddleCap {
		largeTwiddles[bits.TrailingZeros(uint(t.n))].Put(t)
	}
}

// bluestein computes the DFT of x (any length) via the chirp-z transform,
// which reduces to three power-of-two FFTs.
func bluestein(x []complex128, inverse bool) []complex128 {
	n := len(x)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	// Chirp: w[k] = exp(sign·iπk²/n). Compute k² mod 2n to avoid overflow
	// and precision loss for large k.
	chirp := make([]complex128, n)
	for k := 0; k < n; k++ {
		kk := (int64(k) * int64(k)) % int64(2*n)
		chirp[k] = cmplx.Exp(complex(0, sign*math.Pi*float64(kk)/float64(n)))
	}
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	a := make([]complex128, m)
	b := make([]complex128, m)
	for k := 0; k < n; k++ {
		a[k] = x[k] * chirp[k]
		b[k] = cmplx.Conj(chirp[k])
	}
	for k := 1; k < n; k++ {
		b[m-k] = cmplx.Conj(chirp[k])
	}
	fftRadix2(a, false)
	fftRadix2(b, false)
	for i := range a {
		a[i] *= b[i]
	}
	fftRadix2(a, true)
	out := make([]complex128, n)
	scale := complex(1/float64(m), 0)
	for k := 0; k < n; k++ {
		out[k] = a[k] * scale * chirp[k]
	}
	return out
}

// PowerSpectrum returns |X[k]|² of the DFT of x, for bins 0..N/2 (real
// input spectra are symmetric, so only the first half is meaningful).
func PowerSpectrum(x []float64) []float64 {
	X := FFTReal(x)
	half := len(X)/2 + 1
	ps := make([]float64, half)
	for i := 0; i < half; i++ {
		re, im := real(X[i]), imag(X[i])
		ps[i] = re*re + im*im
	}
	return ps
}

// BinFrequency returns the centre frequency in Hz of FFT bin k for an
// N-point transform at sample rate fs.
func BinFrequency(k, n int, fs float64) float64 {
	return float64(k) * fs / float64(n)
}

// Peak holds a detected spectral peak.
type Peak struct {
	Bin       int
	Frequency float64 // Hz
	Power     float64 // linear power, |X[k]|²
}

// FindPeaks locates up to maxPeaks local maxima in the power spectrum of x
// (sampled at fs), each at least minSeparation Hz from stronger peaks, and
// at least minPower in linear power. Peaks are returned strongest first.
// It is the receiver's mechanism for identifying the downlink carrier
// frequencies (paper §5.1b: "identifies the different transmitted
// frequencies on the downlink using FFT and peak detection").
func FindPeaks(x []float64, fs float64, maxPeaks int, minSeparation, minPower float64) []Peak {
	if len(x) == 0 || maxPeaks <= 0 {
		return nil
	}
	ps := PowerSpectrum(x)
	n := len(x)
	type cand struct {
		bin int
		pow float64
	}
	// Candidate counts are data-dependent (every local maximum above the
	// power floor); start from a modest capacity and let growth amortise.
	cands := make([]cand, 0, 32)
	// A peak rises strictly from its left neighbour, so a plateau counts
	// once (at its left edge) and a flat spectrum has no peaks at all.
	for k := 1; k < len(ps)-1; k++ {
		if ps[k] > ps[k-1] && ps[k] >= ps[k+1] && ps[k] >= minPower {
			cands = append(cands, cand{k, ps[k]})
		}
	}
	// Selection sort of the strongest candidates with separation control;
	// candidate counts are small (spectral maxima only).
	peaks := make([]Peak, 0, maxPeaks)
	used := make([]bool, len(cands))
	for len(peaks) < maxPeaks {
		best, bestIdx := -1.0, -1
		for i, c := range cands {
			if used[i] || c.pow <= best {
				continue
			}
			f := BinFrequency(c.bin, n, fs)
			tooClose := false
			for _, p := range peaks {
				if math.Abs(p.Frequency-f) < minSeparation {
					tooClose = true
					break
				}
			}
			if !tooClose {
				best, bestIdx = c.pow, i
			} else {
				used[i] = true
			}
		}
		if bestIdx < 0 {
			break
		}
		used[bestIdx] = true
		b := cands[bestIdx].bin
		peaks = append(peaks, Peak{
			Bin:       b,
			Frequency: BinFrequency(b, n, fs),
			Power:     cands[bestIdx].pow,
		})
	}
	return peaks
}

// Goertzel computes the DFT magnitude of x at a single frequency f (Hz,
// sample rate fs) using the Goertzel recurrence. It is cheaper than a full
// FFT when only one bin is needed (e.g. carrier power probes).
func Goertzel(x []float64, f, fs float64) float64 {
	n := len(x)
	if n == 0 {
		return 0
	}
	k := f / fs * float64(n)
	w := 2 * math.Pi * k / float64(n)
	coeff := 2 * math.Cos(w)
	var s0, s1, s2 float64
	for _, v := range x {
		s0 = v + coeff*s1 - s2
		s2 = s1
		s1 = s0
	}
	power := s1*s1 + s2*s2 - coeff*s1*s2
	if power < 0 {
		power = 0
	}
	return math.Sqrt(power)
}

// NextPow2 returns the smallest power of two ≥ n (and ≥ 1).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

func validateLength(n int, what string) error {
	if n <= 0 {
		return fmt.Errorf("dsp: %s length must be positive, got %d", what, n)
	}
	return nil
}

// AnalyticSignal returns the complex analytic signal of x: its real
// part is x exactly and its imaginary part the Hilbert transform.
// Narrowband backscatter applies a complex reflection coefficient to the
// carrier — magnitude scales and phase shifts — which is exactly
// multiplication of the analytic signal.
func AnalyticSignal(x []float64) []complex128 {
	h := Hilbert(x)
	if h == nil {
		return nil
	}
	out := make([]complex128, len(x))
	for i, v := range x {
		out[i] = complex(v, h[i])
	}
	return out
}

// Hilbert returns the Hilbert transform of x, zero-padded to m, the next
// power of two: the inverse transform of −j·sgn(k)·X[k], with DC and
// Nyquist zeroed (the imaginary part of the FFT-method analytic signal).
//
// A real input's spectrum is Hermitian and so is its Hilbert transform's,
// so both transforms run at half size: x is packed as m/2 complex
// samples z[r] = x[2r] + j·x[2r+1] and transformed; the one-sided
// spectrum splits out of Z with the size-m twiddles w = W_m^k as
// X[k] = E[k] + w·O[k], X[k+m/2] = E[k] − w·O[k], where
// E[k] = (Z[k] + Z̄[m/2−k])/2 and O[k] = −j(Z[k] − Z̄[m/2−k])/2. Forming
// −j·sgn(k)·X[k] and repacking it as the half-size spectrum of
// h[2r] + j·h[2r+1] reduces, with w = c + j·s, to
// Z'[k] = c·Z̄[m/2−k] − j·s·Z[k]; one inverse transform of Z' then yields
// h interleaved.
func Hilbert(x []float64) []float64 {
	n := len(x)
	if n == 0 {
		return nil
	}
	// A half-size transform needs m ≥ 2; m ≤ 2 holds only DC and
	// Nyquist, so the transform of one or two samples is zero.
	m := max(NextPow2(n), 2)
	half := m / 2
	z := make([]complex128, half)
	for i := 0; i+1 < n; i += 2 {
		z[i/2] = complex(x[i], x[i+1])
	}
	if n%2 == 1 {
		z[n/2] = complex(x[n-1], 0)
	}
	fftRadix2(z, false)
	if half >= 2 {
		tab := twiddlesFor(m)
		stride := tab.n / m
		for k := 1; k <= half/2; k++ {
			w := twiddle(tab.tw, k, m/4, stride, 1)
			c, s := real(w), imag(w)
			a, b := z[k], z[half-k]
			// Z'[m/2−k] uses W_m^(m/2−k) = −w̄; at k = m/4 both lines
			// write the same bin with the same value.
			z[k] = complex(c*real(b)+s*imag(a), -c*imag(b)-s*real(a))
			z[half-k] = complex(s*imag(b)-c*real(a), c*imag(a)-s*real(b))
		}
		releaseTwiddles(tab)
	}
	z[0] = 0 // Z'[0] holds DC and Nyquist, both zeroed
	fftRadix2(z, true)
	h := make([]float64, n)
	inv := 1 / float64(half)
	for i := 0; i+1 < n; i += 2 {
		v := z[i/2]
		h[i], h[i+1] = real(v)*inv, imag(v)*inv
	}
	if n%2 == 1 {
		h[n-1] = real(z[n/2]) * inv
	}
	return h
}
