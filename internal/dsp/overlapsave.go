package dsp

import "fmt"

// OverlapSave correlates complex signals against one real template by
// overlap-save: the signal is cut into power-of-two blocks that
// overlap by len(template)−1, each block is transformed, multiplied by
// the template's conjugate spectrum and transformed back, and the
// alias-free part of each block is kept. The template's spectrum is
// computed once, so a correlation costs two block-size FFTs per
// block−len(template)+1 outputs, at any signal length.
type OverlapSave struct {
	m     int
	block int
	// spec is bins 0..block/2 of conj(FFT(h zero-padded to block))/block:
	// the inverse transform's 1/N folded into the template. A real
	// template's spectrum is conjugate-symmetric, so the upper bins are
	// the conjugates of these mirrored.
	spec []complex128
}

// OverlapSaveBlock picks the transform size for a template of m
// samples over a signal of n: about eight template lengths per block,
// where two FFTs per block cost least per output, but no larger than
// the signal needs.
func OverlapSaveBlock(m, n int) int {
	b := NextPow2(8 * m)
	if s := NextPow2(n); s < b {
		b = s
	}
	if b < NextPow2(m) {
		b = NextPow2(m)
	}
	return b
}

// NewOverlapSave prepares template h at the given power-of-two block
// size, which must be at least len(h).
func NewOverlapSave(h []float64, block int) (*OverlapSave, error) {
	if err := validateLength(len(h), "template"); err != nil {
		return nil, err
	}
	if block < len(h) || block&(block-1) != 0 {
		return nil, fmt.Errorf("dsp: overlap-save block %d must be a power of two ≥ template length %d", block, len(h))
	}
	full := make([]complex128, block)
	for i, v := range h {
		full[i] = complex(v, 0)
	}
	fftRadix2(full, false)
	spec := make([]complex128, block/2+1)
	inv := 1 / float64(block)
	for i := range spec {
		spec[i] = complex(real(full[i])*inv, -imag(full[i])*inv)
	}
	return &OverlapSave{m: len(h), block: block, spec: spec}, nil
}

// Correlate returns out[i] = Σ_j (x[i+j]−offset)·h[j] for i in
// [0, len(x)−len(h)], written into dst when it has the capacity.
// Removing a large constant (a carrier's DC) before the transform keeps
// it out of the rounding error of every output. It returns nil when x
// is shorter than the template.
func (o *OverlapSave) Correlate(dst, x []complex128, offset complex128) []complex128 {
	n := len(x) - o.m + 1
	if n <= 0 {
		return nil
	}
	if cap(dst) < n {
		dst = make([]complex128, n)
	}
	dst = dst[:n]
	buf := make([]complex128, o.block)
	step := o.block - o.m + 1
	for s := 0; s < n; s += step {
		blk := x[s:min(s+o.block, len(x))]
		for i, v := range blk {
			buf[i] = v - offset
		}
		clear(buf[len(blk):])
		fftRadix2(buf, false)
		for i, v := range o.spec {
			buf[i] *= v
		}
		for i := len(o.spec); i < len(buf); i++ {
			v := o.spec[len(buf)-i]
			buf[i] *= complex(real(v), -imag(v))
		}
		fftRadix2(buf, true)
		copy(dst[s:], buf[:min(step, n-s)])
	}
	return dst
}
