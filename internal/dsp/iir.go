package dsp

import (
	"fmt"
	"math"
)

// Biquad is a single second-order IIR section in direct form II transposed,
// normalised so a0 == 1:
//
//	y[n] = b0·x[n] + b1·x[n-1] + b2·x[n-2] − a1·y[n-1] − a2·y[n-2]
type Biquad struct {
	B0, B1, B2 float64
	A1, A2     float64
}

// Process filters a single sample, updating the section state (z1, z2).
func (q *Biquad) process(x float64, z *[2]float64) float64 {
	y := q.B0*x + z[0]
	z[0] = q.B1*x - q.A1*y + z[1]
	z[1] = q.B2*x - q.A2*y
	return y
}

// IIR is a cascade of biquad sections (a Butterworth filter of arbitrary
// even or odd order; odd orders carry a degenerate first-order section).
type IIR struct {
	sections []Biquad
}

// Sections returns a copy of the biquad cascade.
func (f *IIR) Sections() []Biquad {
	s := make([]Biquad, len(f.sections))
	copy(s, f.sections)
	return s
}

// Filter runs x through the cascade (causal, single pass) and returns the
// output. x is not modified.
func (f *IIR) Filter(x []float64) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	state := make([][2]float64, len(f.sections))
	for s := range f.sections {
		q := &f.sections[s]
		z := &state[s]
		for i, v := range out {
			out[i] = q.process(v, z)
		}
	}
	return out
}

// FiltFilt runs the filter forward and then backward over x, yielding
// zero-phase filtering with squared magnitude response. This mirrors the
// offline MATLAB decoding the paper's receiver used. x is not modified.
func (f *IIR) FiltFilt(x []float64) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	f.filtFilt(out)
	return out
}

// filtFilt is FiltFilt in place: one forward and one backward pass,
// each running every section per sample. Each section consumes its
// samples in the same order as section-by-section filtering, so the
// result is bit-identical to Filter, reverse, Filter, reverse.
func (f *IIR) filtFilt(x []float64) {
	z := make([][2]float64, len(f.sections))
	for i, v := range x {
		for s := range f.sections {
			v = f.sections[s].process(v, &z[s])
		}
		x[i] = v
	}
	clear(z)
	for i := len(x) - 1; i >= 0; i-- {
		v := x[i]
		for s := range f.sections {
			v = f.sections[s].process(v, &z[s])
		}
		x[i] = v
	}
}

// filtFiltIQ is filtFilt over I and Q together: a complex signal
// filtered in place with the real cascade, both rails in one forward
// and one backward pass.
func (f *IIR) filtFiltIQ(x []complex128) {
	z := make([][2][2]float64, len(f.sections)) // per section: I, Q state
	for i, v := range x {
		re, im := real(v), imag(v)
		for s := range f.sections {
			q := &f.sections[s]
			re = q.process(re, &z[s][0])
			im = q.process(im, &z[s][1])
		}
		x[i] = complex(re, im)
	}
	clear(z)
	for i := len(x) - 1; i >= 0; i-- {
		re, im := real(x[i]), imag(x[i])
		for s := range f.sections {
			q := &f.sections[s]
			re = q.process(re, &z[s][0])
			im = q.process(im, &z[s][1])
		}
		x[i] = complex(re, im)
	}
}

// settleFactor scales the impulse-decay length into Settle's history:
// a forward pass started one decay length early still leaves some
// kept samples a few ulps off the whole-signal filter at channel
// cutoffs.
const settleFactor = 2

// Settle returns the forward-pass history a zero-phase pass needs
// before the first sample it keeps: settleFactor times the samples the
// cascade's impulse response takes to decay below 2⁻⁶⁴ of its peak
// (its state, and so all its future output, below that level). A
// filter that does not decay within maxSettle samples reports
// maxSettle.
func (f *IIR) Settle() int {
	const maxSettle = 1 << 24
	z := make([][2]float64, len(f.sections))
	peak := 0.0
	for n := 0; n < maxSettle; n++ {
		v := 0.0
		if n == 0 {
			v = 1
		}
		for s := range f.sections {
			v = f.sections[s].process(v, &z[s])
		}
		peak = max(peak, math.Abs(v))
		state := 0.0
		for _, zs := range z {
			state += math.Abs(zs[0]) + math.Abs(zs[1])
		}
		if state < 0x1p-64*peak {
			return settleFactor * (n + 1)
		}
	}
	return maxSettle
}

// Response returns the complex frequency response of the cascade at
// frequency f (Hz) for sample rate fs.
func (f *IIR) Response(freq, fs float64) complex128 {
	w := 2 * math.Pi * freq / fs
	z1 := complex(math.Cos(-w), math.Sin(-w)) // z^-1
	z2 := z1 * z1
	h := complex(1, 0)
	for _, q := range f.sections {
		num := complex(q.B0, 0) + complex(q.B1, 0)*z1 + complex(q.B2, 0)*z2
		den := complex(1, 0) + complex(q.A1, 0)*z1 + complex(q.A2, 0)*z2
		h *= num / den
	}
	return h
}

// butterworthQs returns the per-section Q factors for an order-n
// Butterworth cascade, plus whether a trailing first-order section is
// needed (odd orders).
func butterworthQs(n int) (qs []float64, firstOrder bool) {
	pairs := n / 2
	qs = make([]float64, 0, pairs)
	for k := 0; k < pairs; k++ {
		angle := math.Pi * float64(2*k+1) / float64(2*n)
		qs = append(qs, 1/(2*math.Sin(angle)))
	}
	return qs, n%2 == 1
}

// DesignButterworthLowpass designs an order-n Butterworth lowpass with the
// given -3 dB cutoff (Hz) at sample rate fs, as a biquad cascade via the
// bilinear transform.
func DesignButterworthLowpass(cutoff, fs float64, order int) (*IIR, error) {
	if cutoff <= 0 || cutoff >= fs/2 {
		return nil, fmt.Errorf("dsp: butterworth cutoff %g Hz outside (0, fs/2=%g)", cutoff, fs/2)
	}
	if order < 1 {
		return nil, fmt.Errorf("dsp: butterworth order must be ≥ 1, got %d", order)
	}
	w0 := 2 * math.Pi * cutoff / fs
	qs, addFirst := butterworthQs(order)
	sections := make([]Biquad, 0, len(qs)+1)
	for _, q := range qs {
		sections = append(sections, rbjLowpass(w0, q))
	}
	if addFirst {
		sections = append(sections, firstOrderLowpass(w0))
	}
	return &IIR{sections: sections}, nil
}

// rbjLowpass returns the RBJ audio-cookbook lowpass biquad for digital
// angular frequency w0 and quality factor q.
func rbjLowpass(w0, q float64) Biquad {
	cosw := math.Cos(w0)
	alpha := math.Sin(w0) / (2 * q)
	a0 := 1 + alpha
	return Biquad{
		B0: (1 - cosw) / 2 / a0,
		B1: (1 - cosw) / a0,
		B2: (1 - cosw) / 2 / a0,
		A1: -2 * cosw / a0,
		A2: (1 - alpha) / a0,
	}
}

// firstOrderLowpass returns a first-order lowpass expressed as a
// degenerate biquad (B2 = A2 = 0), from the bilinear transform of
// H(s) = 1/(1+s/ωc).
func firstOrderLowpass(w0 float64) Biquad {
	k := math.Tan(w0 / 2)
	a0 := k + 1
	return Biquad{
		B0: k / a0,
		B1: k / a0,
		A1: (k - 1) / a0,
	}
}
