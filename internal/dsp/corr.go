package dsp

import "math"

// CrossCorrelate returns the sliding cross-correlation of signal x with
// template h: out[i] = Σ_j x[i+j]·h[j], for i in [0, len(x)-len(h)].
// It returns nil if the template is longer than the signal.
func CrossCorrelate(x, h []float64) []float64 {
	if len(h) == 0 || len(h) > len(x) {
		return nil
	}
	n := len(x) - len(h) + 1
	// Use FFT convolution with the reversed template for large inputs.
	if len(x)*len(h) > 64*1024 {
		rev := make([]float64, len(h))
		for i, v := range h {
			rev[len(h)-1-i] = v
		}
		full := Convolve(x, rev)
		out := make([]float64, n)
		copy(out, full[len(h)-1:len(h)-1+n])
		return out
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		var s float64
		for j, hv := range h {
			s += x[i+j] * hv
		}
		out[i] = s
	}
	return out
}

// Convolve returns the full linear convolution of a and b
// (length len(a)+len(b)-1). Inputs above a size threshold are convolved via
// FFT for speed; small inputs use the direct method.
func Convolve(a, b []float64) []float64 {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	n := len(a) + len(b) - 1
	// Direct method cost ~ len(a)*len(b); FFT cost ~ 3·m·log2(m).
	if len(a)*len(b) <= 16*1024 {
		out := make([]float64, n)
		for i, av := range a {
			for j, bv := range b {
				out[i+j] += av * bv
			}
		}
		return out
	}
	m := NextPow2(n)
	fa := make([]complex128, m)
	fb := make([]complex128, m)
	for i, v := range a {
		fa[i] = complex(v, 0)
	}
	for i, v := range b {
		fb[i] = complex(v, 0)
	}
	fftRadix2(fa, false)
	fftRadix2(fb, false)
	for i := range fa {
		fa[i] *= fb[i]
	}
	fftRadix2(fa, true)
	out := make([]float64, n)
	inv := 1 / float64(m)
	for i := 0; i < n; i++ {
		out[i] = real(fa[i]) * inv
	}
	return out
}

// NormalizedCrossCorrelate returns the zero-mean normalised
// cross-correlation (Pearson correlation per window): both the template
// mean and each window's local mean are removed, so each output lies in
// [-1, 1] and is invariant to the window's amplitude *and* DC offset.
// Local offset invariance matters for preamble detection on projected
// baseband streams, where residual carrier offsets vary along the
// recording.
func NormalizedCrossCorrelate(x, h []float64) []float64 {
	if len(h) == 0 || len(h) > len(x) {
		return nil
	}
	m := len(h)
	hMean := Mean(h)
	hc := make([]float64, m)
	hEnergy := 0.0
	for i, v := range h {
		hc[i] = v - hMean
		hEnergy += hc[i] * hc[i]
	}
	raw := CrossCorrelate(x, hc) // Σ x·(h−h̄); window mean term handled below
	if raw == nil {
		return nil
	}
	// Sliding sums of x and x² via prefix sums.
	sum := make([]float64, len(x)+1)
	sumSq := make([]float64, len(x)+1)
	for i, v := range x {
		sum[i+1] = sum[i] + v
		sumSq[i+1] = sumSq[i] + v*v
	}
	out := make([]float64, len(raw))
	mf := float64(m)
	for i := range raw {
		wSum := sum[i+m] - sum[i]
		wSumSq := sumSq[i+m] - sumSq[i]
		// Numerator: Σ(x−x̄w)(h−h̄) = Σx·(h−h̄) − x̄w·Σ(h−h̄) = raw[i]
		// (the centred template sums to zero).
		xVar := wSumSq - wSum*wSum/mf
		if xVar < 0 {
			xVar = 0
		}
		den := math.Sqrt(xVar * hEnergy)
		if den > 0 {
			out[i] = raw[i] / den
		}
	}
	return out
}

// ArgMaxAbs returns the index and value of the element with the largest
// absolute value.
func ArgMaxAbs(x []float64) (int, float64) {
	idx, best := -1, math.Inf(-1)
	for i, v := range x {
		if a := math.Abs(v); a > best {
			idx, best = i, a
		}
	}
	if idx < 0 {
		return -1, math.Inf(-1)
	}
	return idx, x[idx]
}

// Mean returns the arithmetic mean of x (0 for empty input).
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// RMS returns the root-mean-square of x (0 for empty input).
func RMS(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s / float64(len(x)))
}

// Add accumulates src into dst elementwise over the overlapping prefix and
// returns dst.
func Add(dst, src []float64) []float64 {
	n := len(dst)
	if len(src) < n {
		n = len(src)
	}
	for i := 0; i < n; i++ {
		dst[i] += src[i]
	}
	return dst
}
