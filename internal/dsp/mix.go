package dsp

import (
	"fmt"
	"math"

	"pab/internal/prof"
)

// Oscillator generates coherent sinusoids sample by sample. It tracks phase
// continuously so consecutive blocks are phase-continuous.
type Oscillator struct {
	freq  float64 // Hz
	fs    float64 // Hz
	phase float64 // radians
}

// NewOscillator returns an oscillator at frequency f (Hz) for sample rate
// fs (Hz) with initial phase 0.
func NewOscillator(f, fs float64) *Oscillator {
	return &Oscillator{freq: f, fs: fs}
}

// Next returns sin(phase) and advances one sample.
func (o *Oscillator) Next() float64 {
	v := math.Sin(o.phase)
	o.phase += 2 * math.Pi * o.freq / o.fs
	if o.phase > 2*math.Pi {
		o.phase -= 2 * math.Pi
	}
	return v
}

// Sine synthesises amplitude·sin(2πft + phase) sampled at fs for n samples.
func Sine(amplitude, f, fs, phase float64, n int) []float64 {
	out := make([]float64, n)
	w := 2 * math.Pi * f / fs
	for i := range out {
		out[i] = amplitude * math.Sin(w*float64(i)+phase)
	}
	return out
}

// Downconvert mixes the real passband signal x (sample rate fs) down by
// carrier frequency fc, returning the complex baseband signal. The result
// still contains the 2·fc image; low-pass filter it (see DownconvertLP) to
// complete the demodulation.
func Downconvert(x []float64, fc, fs float64) []complex128 {
	return downconvertFrom(x, 0, fc, fs)
}

// downconvertFrom is Downconvert of x[lo:] with the mixer phase kept in
// absolute sample index, so out[i] is x[lo+i]·e^{-jω(lo+i)}.
func downconvertFrom(x []float64, lo int, fc, fs float64) []complex128 {
	out := make([]complex128, len(x)-lo)
	w := 2 * math.Pi * fc / fs
	for i, v := range x[lo:] {
		// e^{-jωt}·x(t)
		s, c := math.Sincos(w * float64(lo+i))
		out[i] = complex(v*c, -v*s)
	}
	return out
}

// DownconvertLP mixes x down by fc and low-pass filters I and Q with an
// order-`order` Butterworth at the given cutoff, returning the complex
// baseband envelope of x[from:]. This is the paper's demodulation step
// ("demodulate by removing the carrier frequency", §3.2): the magnitude
// of the result is the amplitude trace plotted in Fig 2.
//
// The filter is zero-phase (forward then backward), and only the span
// the caller keeps is worked: the backward pass over [from:] reads only
// samples at or after from, and the forward pass needs only the
// cascade's Settle samples of history before from. So x[:from−Settle]
// is neither mixed nor filtered, and the result equals the whole-signal
// filter's output over [from:] (bit for bit at channel cutoffs, to
// within the low-cutoff cascade's rounding floor otherwise).
func DownconvertLP(x []float64, from int, fc, fs, cutoff float64, order int) ([]complex128, error) {
	if from < 0 || from > len(x) {
		return nil, fmt.Errorf("dsp: downconvert start %d outside [0, %d]", from, len(x))
	}
	lp, err := DesignButterworthLowpass(cutoff, fs, order)
	if err != nil {
		return nil, err
	}
	lo := readStart(lp, from)
	st := prof.Start(prof.StageDownconvert)
	bb := downconvertFrom(x, lo, fc, fs)
	st.Stop(len(bb))
	st = prof.Start(prof.StageFilter)
	lp.filtFiltIQ(bb)
	st.Stop(len(bb))
	return bb[from-lo:], nil
}

// DownconvertLPStart returns the first sample of x that
// DownconvertLP(x, from, fc, fs, cutoff, order) reads, so a caller that
// produces x can skip every sample before it.
func DownconvertLPStart(from int, fs, cutoff float64, order int) (int, error) {
	lp, err := DesignButterworthLowpass(cutoff, fs, order)
	if err != nil {
		return 0, err
	}
	return readStart(lp, from), nil
}

// readStart is the first sample a zero-phase pass of lp that keeps
// [from:] reads: from less the forward pass's settle history.
func readStart(lp *IIR, from int) int {
	return max(from-lp.Settle(), 0)
}

// Envelope returns |x| of a complex baseband signal.
func Envelope(x []complex128) []float64 {
	out := make([]float64, len(x))
	for i, c := range x {
		out[i] = math.Hypot(real(c), imag(c))
	}
	return out
}

// AmplitudeEnvelope recovers the envelope of a real passband signal by
// full-wave rectification followed by Butterworth low-pass filtering at
// the given cutoff, scaled by π/2 to undo the rectification loss. This is
// the low-power envelope detector a PAB node itself implements in analog
// hardware for downlink PWM decoding.
func AmplitudeEnvelope(x []float64, fs, cutoff float64, order int) ([]float64, error) {
	lp, err := DesignButterworthLowpass(cutoff, fs, order)
	if err != nil {
		return nil, err
	}
	env := make([]float64, len(x))
	for i, v := range x {
		env[i] = math.Abs(v)
	}
	lp.filtFilt(env)
	// Mean of |sin| is 2/π of the peak; rescale to peak amplitude.
	scale := math.Pi / 2
	for i := range env {
		env[i] *= scale
	}
	return env, nil
}

// Decimate returns every factor-th sample of x, starting at index 0.
// The caller is responsible for prior anti-alias filtering.
func Decimate(x []float64, factor int) []float64 {
	if factor <= 1 {
		out := make([]float64, len(x))
		copy(out, x)
		return out
	}
	out := make([]float64, 0, len(x)/factor+1)
	for i := 0; i < len(x); i += factor {
		out = append(out, x[i])
	}
	return out
}

// DecimateComplex is Decimate for complex baseband signals.
func DecimateComplex(x []complex128, factor int) []complex128 {
	if factor <= 1 {
		out := make([]complex128, len(x))
		copy(out, x)
		return out
	}
	out := make([]complex128, 0, len(x)/factor+1)
	for i := 0; i < len(x); i += factor {
		out = append(out, x[i])
	}
	return out
}
