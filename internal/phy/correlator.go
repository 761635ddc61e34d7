package phy

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"pab/internal/dsp"
	"pab/internal/telemetry"
)

// Correlator finds one FM0 configuration's preamble by normalised
// cross-correlation. A receiver correlates its complex baseband once
// (Correlate) and then scores any real projection of it — any
// modulation-axis rotation, over any window — in O(1) per alignment.
//
// Why one correlation serves every projection: with z = bb − ḡ (ḡ any
// fixed offset, such as the stream mean) and ρ = c + jd a unit
// rotation, the projection is x = Re(ρ·z) + const. The centred
// template h_c sums to zero, so Σ x[i+j]·h_c[j] = Re(ρ·C[i]) with
// C[i] = Σ z[i+j]·h_c[j] computed once, and the window's variance
// follows from five prefix sums of z (re, im, re², im², re·im).
type Correlator struct {
	spb     int
	hc      []float64 // the preamble template minus its mean
	hEnergy float64
	// payloadLevel is the FM0 level after the preamble, for start
	// levels −1 and +1.
	payloadLevel [2]float64
	// spectra caches hc's spectrum per overlap-save block size, indexed
	// by log2(block) − log2(NextPow2(len(hc))); OverlapSaveBlock never
	// exceeds NextPow2(8·len(hc)), so four slots cover every size.
	spectra [4]atomic.Pointer[dsp.OverlapSave]
}

// correlators caches one Correlator per samples-per-bit, so a
// template's spectra are computed once per process.
var (
	correlatorsMu sync.Mutex
	correlators   = map[int]*Correlator{}
)

// CorrelatorFor returns the cached Correlator for m's configuration.
func CorrelatorFor(m *FM0) *Correlator {
	correlatorsMu.Lock()
	defer correlatorsMu.Unlock()
	if k, ok := correlators[m.SamplesPerBit]; ok {
		return k
	}
	tmpl := m.EncodeTemplate(PreambleBits)
	k := &Correlator{spb: m.SamplesPerBit, hc: make([]float64, len(tmpl))}
	mean := dsp.Mean(tmpl)
	for i, v := range tmpl {
		k.hc[i] = v - mean
		k.hEnergy += k.hc[i] * k.hc[i]
	}
	_, k.payloadLevel[0] = m.Encode(PreambleBits, -1)
	_, k.payloadLevel[1] = m.Encode(PreambleBits, 1)
	correlators[m.SamplesPerBit] = k
	return k
}

// overlapSave returns the template prepared for a signal of n samples.
func (k *Correlator) overlapSave(n int) *dsp.OverlapSave {
	block := dsp.OverlapSaveBlock(len(k.hc), n)
	slot := &k.spectra[bits.TrailingZeros(uint(block))-bits.TrailingZeros(uint(dsp.NextPow2(len(k.hc))))]
	if o := slot.Load(); o != nil {
		return o
	}
	o, err := dsp.NewOverlapSave(k.hc, block)
	if err != nil {
		panic(err) // OverlapSaveBlock returns a power of two ≥ len(hc)
	}
	slot.CompareAndSwap(nil, o)
	return slot.Load()
}

// moments are running sums of z's components up to one index.
type moments struct{ re, im, rr, ii, ri float64 }

// add folds one sample into the sums. Every prefix sum of a stream is
// built by add in sample order, so a prefix resumed from a checkpoint
// is bit-identical to one summed from the start.
func (s *moments) add(v complex128) {
	re, im := real(v), imag(v)
	s.re += re
	s.im += im
	s.rr += re * re
	s.ii += im * im
	s.ri += re * im
}

// checkpointEvery is the spacing of stored prefix sums: a window's
// prefix sums are resumed from the checkpoint below it, so storing one
// in 64 costs a 64-sample walk per window instead of 40 bytes per
// sample.
const checkpointEvery = 64

// Correlation is one stream correlated against the preamble.
type Correlation struct {
	k *Correlator
	// The stream is z = bb − offset, never stored; c[i] = Σ_j z[i+j]·hc[j]
	// for every alignment i.
	bb     []complex128
	offset complex128
	c      []complex128
	// checkpoints[b] sums z[0 : b·checkpointEvery].
	checkpoints []moments
	// scores is the candidate search's scratch.
	scores []float64
}

// Correlate correlates bb − offset against the preamble. Pass the
// stream's mean as offset: the prefix sums then stay free of the
// carrier's DC, which would otherwise cancel catastrophically in every
// window variance. The Correlation reads bb while it is in use, so bb
// must not change meanwhile.
func (k *Correlator) Correlate(bb []complex128, offset complex128) (*Correlation, error) {
	if len(bb) < len(k.hc) {
		return nil, fmt.Errorf("phy: waveform shorter than preamble (%d < %d)", len(bb), len(k.hc))
	}
	checkpoints := make([]moments, len(bb)/checkpointEvery+1)
	var s moments
	for i, v := range bb {
		if i%checkpointEvery == 0 {
			checkpoints[i/checkpointEvery] = s
		}
		s.add(v - offset)
	}
	if len(bb)%checkpointEvery == 0 {
		checkpoints[len(bb)/checkpointEvery] = s
	}
	c := k.overlapSave(len(bb)).Correlate(nil, bb, offset)
	return &Correlation{k: k, bb: bb, offset: offset, c: c, checkpoints: checkpoints}, nil
}

// prefix returns the sums of z[0:j].
func (c *Correlation) prefix(j int) moments {
	b := j / checkpointEvery
	s := c.checkpoints[b]
	for _, v := range c.bb[b*checkpointEvery : j] {
		s.add(v - c.offset)
	}
	return s
}

// correlateReal is Correlate for a real waveform: its imaginary parts
// are zero, so the rotation-1 projection is the waveform itself.
func (k *Correlator) correlateReal(wave []float64) (*Correlation, error) {
	bb := make([]complex128, len(wave))
	for i, v := range wave {
		bb[i] = complex(v, 0)
	}
	return k.Correlate(bb, complex(meanOf(wave), 0))
}

// scoreInto writes, for each alignment lo+i, the normalised correlation
// (Pearson, in [−1, 1]) of the projection Re(rot·z) against the
// preamble into dst[i] — the value dsp.NormalizedCrossCorrelate gives
// for that projection, up to rounding. rot must be a unit rotation.
func (c *Correlation) scoreInto(dst []float64, rot complex128, lo int) {
	m := len(c.k.hc)
	invM, hEnergy := 1/float64(m), c.k.hEnergy
	cr, ci := real(rot), imag(rot)
	crr, cii, cri := cr*cr, ci*ci, 2*cr*ci
	// a and b are the prefix sums at the window's two ends, advanced
	// one sample per alignment.
	a, b := c.prefix(lo), c.prefix(lo+m)
	corr := c.c[lo : lo+len(dst)]
	bb := c.bb[lo : lo+len(dst)+m-1]
	for i := range dst {
		sx := cr*(b.re-a.re) - ci*(b.im-a.im)
		sxx := crr*(b.rr-a.rr) + cii*(b.ii-a.ii) - cri*(b.ri-a.ri)
		v := sxx - sx*sx*invM
		if v < 0 {
			v = 0
		}
		dst[i] = 0
		if den := math.Sqrt(v * hEnergy); den > 0 {
			dst[i] = (cr*real(corr[i]) - ci*imag(corr[i])) / den
		}
		if i+1 < len(dst) {
			a.add(bb[i] - c.offset)
			b.add(bb[i+m] - c.offset)
		}
	}
}

// Candidates returns up to maxK packet starts on the projection
// Re(rot·z) among the alignments that fit inside samples [lo, hi),
// strongest first, each scoring |corr| ≥ threshold and separated by at
// least minSeparation samples (default: one preamble length). Ties go
// to the later alignment. FM0's start level is unknown, so the
// preamble may appear inverted: the search runs on |corr| and the
// polarity comes from the sign. Each call counts one phy sync detect
// or miss, except when the window is shorter than the preamble.
func (c *Correlation) Candidates(rot complex128, lo, hi int, threshold float64, maxK, minSeparation int) ([]Sync, error) {
	m := len(c.k.hc)
	if hi-lo < m {
		return nil, fmt.Errorf("phy: waveform shorter than preamble (%d < %d)", hi-lo, m)
	}
	if maxK < 1 {
		maxK = 1
	}
	if minSeparation <= 0 {
		minSeparation = m
	}
	n := hi - lo - m + 1
	if cap(c.scores) < n {
		c.scores = make([]float64, n)
	}
	corr := c.scores[:n]
	c.scoreInto(corr, rot, lo)
	out := make([]Sync, 0, maxK)
	for _, p := range pickPeaks(corr, threshold, maxK, minSeparation) {
		start, level := 1.0, c.k.payloadLevel[1]
		if p.corr < 0 {
			start, level = -1, c.k.payloadLevel[0]
		}
		out = append(out, Sync{
			Index:        lo + p.index,
			Score:        math.Abs(p.corr),
			StartLevel:   start,
			PayloadLevel: level,
			PayloadIndex: lo + p.index + len(PreambleBits)*c.k.spb,
		})
	}
	if len(out) == 0 {
		telemetry.Inc(telemetry.MPhySyncMissesTotal)
		_, best := dsp.ArgMaxAbs(corr)
		return nil, fmt.Errorf("phy: no preamble found (best %.3f < threshold %.3f)", math.Abs(best), threshold)
	}
	telemetry.Inc(telemetry.MPhySyncDetectsTotal)
	telemetry.ObserveN(telemetry.MPhySyncCandidates, telemetry.DefCountBuckets, float64(len(out)))
	telemetry.ObserveN(telemetry.MPhySyncPeak, syncPeakBuckets, out[0].Score)
	return out, nil
}

// peak is one pick of pickPeaks: an alignment and its signed score.
type peak struct {
	index int
	corr  float64
}

// peakBlock is the number of alignments summarised by one block
// maximum in pickPeaks.
const peakBlock = 64

// blockMax is the largest |corr| in one block and the last index
// holding it.
type blockMax struct {
	abs   float64
	index int
}

// pickPeaks is the greedy candidate search: up to maxK times, take the
// alignment with the largest |corr| ≥ threshold — the later one on a
// tie — then mark every alignment within minSeparation of it taken
// (NaN, which no comparison selects). It keeps one maximum per block of
// peakBlock alignments, so a pick rescans only the blocks its taken
// range touched instead of the whole stream. corr is modified.
func pickPeaks(corr []float64, threshold float64, maxK, minSeparation int) []peak {
	blocks := make([]blockMax, (len(corr)+peakBlock-1)/peakBlock)
	for b := range blocks {
		blocks[b] = maxAbsIn(corr, b)
	}
	picks := make([]peak, 0, maxK)
	for len(picks) < maxK {
		best, bestAbs := -1, threshold
		for b, m := range blocks {
			if m.index >= 0 && m.abs >= bestAbs {
				best, bestAbs = b, m.abs
			}
		}
		if best < 0 {
			break
		}
		i := blocks[best].index
		//pablint:ignore allocloop picks has capacity maxK, which bounds the loop
		picks = append(picks, peak{index: i, corr: corr[i]})
		lo, hi := max(i-minSeparation, 0), min(i+minSeparation, len(corr))
		for j := lo; j < hi; j++ {
			corr[j] = math.NaN()
		}
		for b := lo / peakBlock; b <= (hi-1)/peakBlock; b++ {
			blocks[b] = maxAbsIn(corr, b)
		}
	}
	return picks
}

// maxAbsIn returns block b's maximum (index −1 when every alignment in
// it is taken).
func maxAbsIn(corr []float64, b int) blockMax {
	m := blockMax{abs: math.Inf(-1), index: -1}
	for i := b * peakBlock; i < min((b+1)*peakBlock, len(corr)); i++ {
		if a := math.Abs(corr[i]); a >= m.abs {
			m = blockMax{abs: a, index: i}
		}
	}
	return m
}
