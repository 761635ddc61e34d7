package core

import "math/cmplx"

// AxisTracker is the streaming counterpart of estimateAxis: it keeps
// the modulation-axis estimate of a complex baseband stream as running
// first and second moments, so a block-based receiver can project new
// samples onto the current axis without re-reading its window. Σv and
// Σv² suffice — the centred second moment is Σv² − n·mean², the same
// statistic estimateAxis computes directly (up to floating-point
// association).
type AxisTracker struct {
	sum   complex128
	sumSq complex128
	n     float64
}

// Add folds a block into the moment accumulators.
func (a *AxisTracker) Add(block []complex128) {
	var s, sq complex128
	for _, v := range block {
		s += v
		sq += v * v
	}
	a.sum += s
	a.sumSq += sq
	a.n += float64(len(block))
}

// Reset clears the accumulators.
func (a *AxisTracker) Reset() { *a = AxisTracker{} }

// Count returns the number of samples folded in.
func (a *AxisTracker) Count() float64 { return a.n }

// axis materialises the current estimate.
func (a *AxisTracker) axis() modAxis {
	if a.n == 0 {
		return modAxis{rot: 1}
	}
	mean := a.sum / complex(a.n, 0)
	acc := a.sumSq - complex(a.n, 0)*mean*mean
	theta := cmplx.Phase(acc) / 2
	return modAxis{mean: mean, rot: cmplx.Exp(complex(0, -theta))}
}

// ProjectInto projects block onto the current axis estimate — the
// quadrature axis when quad is set, matching the two orthogonal coarse
// projections detectRefinedAll searches — writing into dst, which must
// hold at least len(block) elements. It returns dst[:len(block)].
func (a *AxisTracker) ProjectInto(dst []float64, block []complex128, quad bool) []float64 {
	ax := a.axis()
	if quad {
		ax.rot *= complex(0, 1)
	}
	return projectAxisInto(dst, block, ax)
}
