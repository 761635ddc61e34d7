package phy

import (
	"fmt"
	"math"
	"sync"

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
//
// C itself comes from the prefix sums too. h_c is piecewise constant —
// one run per FM0 half-bit level, 13 for the preamble — so with
// P[k] = Σ z[0:k], C[i] = Σ_b w_b·P[i+t_b] over the template's run
// breakpoints t_b (0, every level change, and m), each weighted by the
// step h_c[t_b−1] − h_c[t_b] (h_c is zero outside [0, m)).
type Correlator struct {
	spb     int
	m       int // template length
	hEnergy float64
	// payloadLevel is the FM0 level after the preamble, for start
	// levels −1 and +1.
	payloadLevel [2]float64
	// breaks are h_c's run breakpoints, ascending from 0 to m.
	breaks []breakpoint
}

// breakpoint is one term of the run-length correlation: C[i] gains
// w·P[i+at].
type breakpoint struct {
	at int
	w  float64
}

// correlators caches one Correlator per samples-per-bit, so a
// template's breakpoints are derived once per process.
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
	hc := make([]float64, len(tmpl))
	k := &Correlator{spb: m.SamplesPerBit, m: len(tmpl)}
	mean := dsp.Mean(tmpl)
	for i, v := range tmpl {
		hc[i] = v - mean
		k.hEnergy += hc[i] * hc[i]
	}
	// Each bit holds at most two runs, so 2·bits+1 breakpoints at most.
	breaks := make([]breakpoint, 0, 2*len(PreambleBits)+1)
	breaks = append(breaks, breakpoint{at: 0, w: -hc[0]})
	for j := 1; j < len(hc); j++ {
		//pablint:ignore floatcmp hc holds two exact levels (±1 less one mean); any change of level is a breakpoint
		if hc[j] != hc[j-1] {
			breaks = append(breaks, breakpoint{at: j, w: hc[j-1] - hc[j]})
		}
	}
	k.breaks = append(breaks, breakpoint{at: len(hc), w: hc[len(hc)-1]})
	_, k.payloadLevel[0] = m.Encode(PreambleBits, -1)
	_, k.payloadLevel[1] = m.Encode(PreambleBits, 1)
	correlators[m.SamplesPerBit] = k
	return k
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
// window variance and in C. The Correlation reads bb while it is in
// use, so bb must not change meanwhile.
func (k *Correlator) Correlate(bb []complex128, offset complex128) (*Correlation, error) {
	if len(bb) < k.m {
		return nil, fmt.Errorf("phy: waveform shorter than preamble (%d < %d)", len(bb), k.m)
	}
	// One ordered pass stores P = the re and im prefix sums of z and
	// checkpoints all five moments.
	p := make([]complex128, len(bb)+1)
	checkpoints := make([]moments, len(bb)/checkpointEvery+1)
	var s moments
	for i, v := range bb {
		if i%checkpointEvery == 0 {
			checkpoints[i/checkpointEvery] = s
		}
		p[i] = complex(s.re, s.im)
		s.add(v - offset)
	}
	p[len(bb)] = complex(s.re, s.im)
	if len(bb)%checkpointEvery == 0 {
		checkpoints[len(bb)/checkpointEvery] = s
	}
	c := k.correlateRuns(p, len(bb)-k.m+1)
	return &Correlation{k: k, bb: bb, offset: offset, c: c, checkpoints: checkpoints}, nil
}

// correlateRuns overwrites p[:n] with C[i] = Σ_b w_b·P[i+t_b], where p
// holds P[0 : n+m]. C[i] reads only P[≥ i], so it can replace P[i] in
// an ascending pass. Four alignments share each pass over the
// breakpoints, which keeps eight independent sums in flight instead of
// one dependent chain.
func (k *Correlator) correlateRuns(p []complex128, n int) []complex128 {
	i := 0
	for ; i+4 <= n; i += 4 {
		var r0, i0, r1, i1, r2, i2, r3, i3 float64
		for _, b := range k.breaks {
			q := (*[4]complex128)(p[i+b.at:])
			r0 += b.w * real(q[0])
			i0 += b.w * imag(q[0])
			r1 += b.w * real(q[1])
			i1 += b.w * imag(q[1])
			r2 += b.w * real(q[2])
			i2 += b.w * imag(q[2])
			r3 += b.w * real(q[3])
			i3 += b.w * imag(q[3])
		}
		q := (*[4]complex128)(p[i:])
		q[0], q[1], q[2], q[3] = complex(r0, i0), complex(r1, i1), complex(r2, i2), complex(r3, i3)
	}
	for ; i < n; i++ {
		var re, im float64
		for _, b := range k.breaks {
			re += b.w * real(p[i+b.at])
			im += b.w * imag(p[i+b.at])
		}
		p[i] = complex(re, im)
	}
	return p[:n]
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
	m := c.k.m
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
	m := c.k.m
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
