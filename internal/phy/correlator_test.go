package phy

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"

	"pab/internal/dsp"
	"pab/internal/telemetry"
)

// correlatorStream is complex baseband with a strong carrier, noise,
// and an FM0 packet (preamble + payload) modulated along a tilted axis
// at index at.
func correlatorStream(rng *rand.Rand, m *FM0, n, at int, axis complex128) []complex128 {
	frame := append(append([]Bit{}, PreambleBits...), randBits(rng, 40)...)
	wave, _ := m.Encode(frame, -1)
	bb := make([]complex128, n)
	for i := range bb {
		bb[i] = complex(3, -2) + complex(rng.NormFloat64(), rng.NormFloat64())*0.3
	}
	for i, v := range wave {
		bb[at+i] += complex(v*0.5, 0) * axis
	}
	return bb
}

// referenceCandidates is the per-projection search the correlator
// replaces: project, centre, normalised-correlate, then pick greedily
// on |corr| with a taken mask.
func referenceCandidates(x []float64, m *FM0, threshold float64, maxK, minSep int) []Sync {
	mean := dsp.Mean(x)
	centred := make([]float64, len(x))
	for i, v := range x {
		centred[i] = v - mean
	}
	tmpl := m.EncodeTemplate(PreambleBits)
	corr := dsp.NormalizedCrossCorrelate(centred, tmpl)
	if minSep <= 0 {
		minSep = len(tmpl)
	}
	taken := make([]bool, len(corr))
	var out []Sync
	for k := 0; k < maxK; k++ {
		best, bestAbs := -1, threshold
		for i, v := range corr {
			if !taken[i] && math.Abs(v) >= bestAbs {
				best, bestAbs = i, math.Abs(v)
			}
		}
		if best < 0 {
			break
		}
		start := 1.0
		if corr[best] < 0 {
			start = -1
		}
		_, final := m.Encode(PreambleBits, start)
		out = append(out, Sync{Index: best, Score: bestAbs, StartLevel: start, PayloadLevel: final,
			PayloadIndex: best + len(PreambleBits)*m.SamplesPerBit})
		for i := max(best-minSep, 0); i < min(best+minSep, len(corr)); i++ {
			taken[i] = true
		}
	}
	return out
}

func project(bb []complex128, mean, rot complex128) []float64 {
	x := make([]float64, len(bb))
	for i, v := range bb {
		x[i] = real((v - mean) * rot)
	}
	return x
}

func sameSyncs(t *testing.T, what string, got, want []Sync) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d candidates, want %d", what, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Index != w.Index || g.StartLevel != w.StartLevel || g.PayloadLevel != w.PayloadLevel ||
			g.PayloadIndex != w.PayloadIndex || math.Abs(g.Score-w.Score) > 1e-9 {
			t.Fatalf("%s: candidate %d = %+v, want %+v", what, i, g, w)
		}
	}
}

// TestCorrelationMatchesPerProjectionSearch checks the one-correlation
// identity: every rotation's candidates, over the whole stream and in a
// refinement window, match correlating that projection on its own.
func TestCorrelationMatchesPerProjectionSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	m, _ := NewFM0(24)
	axis := cmplx.Exp(complex(0, 0.9))
	bb := correlatorStream(rng, m, 6000, 2100, axis)
	var mean complex128
	for _, v := range bb {
		mean += v
	}
	mean /= complex(float64(len(bb)), 0)
	c, err := CorrelatorFor(m).Correlate(bb, mean)
	if err != nil {
		t.Fatal(err)
	}
	for _, rot := range []complex128{1, complex(0, 1), cmplx.Conj(axis), cmplx.Exp(complex(0, 2.5))} {
		x := project(bb, mean, rot)
		got, err := c.Candidates(rot, 0, len(bb), 0.2, 8, 0)
		if err != nil {
			t.Fatal(err)
		}
		sameSyncs(t, "whole stream", got, referenceCandidates(x, m, 0.2, 8, 0))

		lo, hi := 2100-m.SamplesPerBit, 2100+m.SamplesPerBit+len(PreambleBits)*m.SamplesPerBit
		want := referenceCandidates(x[lo:hi], m, 0.1, 1, 0)
		for i := range want {
			want[i].Index += lo
			want[i].PayloadIndex += lo
		}
		got, err = c.Candidates(rot, lo, hi, 0.1, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		sameSyncs(t, "window", got, want)
	}
	// On the modulation axis the packet is found at full strength.
	got, _ := c.Candidates(cmplx.Conj(axis), 0, len(bb), 0.5, 1, 0)
	// Amplitude 0.5 over noise σ=0.3 per component: Pearson ≈ 0.5/√(0.5²+0.3²) ≈ 0.86.
	if got[0].Index != 2100 || got[0].Score < 0.8 || got[0].StartLevel != -1 {
		t.Fatalf("on-axis lock %+v, want index 2100, score > 0.8, start −1", got[0])
	}
}

// TestDetectPacketCandidatesMatchesReference pins the real-waveform
// path (the tracked-retry and public API) to the same search.
func TestDetectPacketCandidatesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	m, _ := NewFM0(12)
	bb := correlatorStream(rng, m, 3000, 777, 1)
	x := project(bb, 0, 1)
	got, err := DetectPacketCandidates(x, m, 0.25, 4, 50)
	if err != nil {
		t.Fatal(err)
	}
	sameSyncs(t, "real", got, referenceCandidates(x, m, 0.25, 4, 50))
}

// TestCandidatesCountOneDetectOrMiss: each search counts exactly one
// phy sync detect or miss, and a window shorter than the preamble
// counts neither.
func TestCandidatesCountOneDetectOrMiss(t *testing.T) {
	was := telemetry.Enabled()
	telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(was)
	counts := func() (int64, int64) {
		s := telemetry.Default().Snapshot()
		return s.Counters[string(telemetry.MPhySyncDetectsTotal)], s.Counters[string(telemetry.MPhySyncMissesTotal)]
	}
	rng := rand.New(rand.NewSource(33))
	m, _ := NewFM0(12)
	bb := correlatorStream(rng, m, 3000, 500, 1)
	c, err := CorrelatorFor(m).Correlate(bb, complex(3, -2))
	if err != nil {
		t.Fatal(err)
	}
	d0, m0 := counts()
	if _, err := c.Candidates(1, 0, len(bb), 0.5, 3, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Candidates(1, 0, len(bb), 1.01, 3, 0); err == nil {
		t.Fatal("threshold above 1 matched")
	}
	if _, err := c.Candidates(1, 0, 10, 0.5, 1, 0); err == nil {
		t.Fatal("window shorter than the preamble searched")
	}
	d1, m1 := counts()
	if d1-d0 != 1 || m1-m0 != 1 {
		t.Fatalf("detects +%d misses +%d, want +1 and +1", d1-d0, m1-m0)
	}
	if _, err := CorrelatorFor(m).Correlate(bb[:50], 0); err == nil {
		t.Fatal("stream shorter than the preamble correlated")
	}
}

// TestPickPeaksMatchesFullScan checks the block-maximum search against
// a full rescan per pick on arrays with many exact ties (values drawn
// from a few levels, both signs), so the later-index tie rule and the
// taken mask are exercised across block boundaries.
func TestPickPeaksMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(700)
		corr := make([]float64, n)
		for i := range corr {
			corr[i] = float64(rng.Intn(7)-3) / 4
		}
		threshold := float64(rng.Intn(4)) / 4
		maxK, minSep := 1+rng.Intn(10), 1+rng.Intn(150)

		ref := append([]float64(nil), corr...)
		var want []peak
		for len(want) < maxK {
			best, bestAbs := -1, threshold
			for i, v := range ref {
				if a := math.Abs(v); a >= bestAbs {
					best, bestAbs = i, a
				}
			}
			if best < 0 {
				break
			}
			want = append(want, peak{best, ref[best]})
			for i := max(best-minSep, 0); i < min(best+minSep, n); i++ {
				ref[i] = math.NaN()
			}
		}
		got := pickPeaks(corr, threshold, maxK, minSep)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d picks, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: pick %d = %+v, want %+v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestCorrelatorConcurrentFirstUse builds correlators and their cached
// template breakpoints from many goroutines at once, at several bit
// lengths and signal lengths, and checks every lock matches the serial
// result. Run it under -race.
func TestCorrelatorConcurrentFirstUse(t *testing.T) {
	type input struct {
		m    *FM0
		wave []float64
		want Sync
	}
	rng := rand.New(rand.NewSource(35))
	var inputs []input
	for _, spb := range []int{8, 12, 20, 32} {
		m, _ := NewFM0(spb)
		for _, n := range []int{60 * spb, 400 * spb} {
			wave := project(correlatorStream(rng, m, n, n/8, 1), 0, 1)
			want, err := DetectPacket(wave, m, 0.3)
			if err != nil {
				t.Fatal(err)
			}
			inputs = append(inputs, input{m, wave, want})
		}
	}
	correlatorsMu.Lock()
	clear(correlators)
	correlatorsMu.Unlock()
	const workers = 16
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range inputs {
				in := inputs[(k+w)%len(inputs)]
				got, err := DetectPacket(in.wave, in.m, 0.3)
				if err != nil || got != in.want {
					t.Errorf("worker %d spb %d: got %+v (%v), want %+v", w, in.m.SamplesPerBit, got, err, in.want)
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestRunLengthCorrelationAccuracy bounds the prefix-sum correlation
// against the direct O(m) sum C[i] = Σ_j z[i+j]·h_c[j] at the
// receiver's bit lengths, on a residual-CFO carrier 10³–10⁵ times the
// modulation (the regime where P grows largest), for streams up to
// 2^20 samples. Each checked window must satisfy
// |ΔC| ≤ 1e-10·√(Σ|z|²·Σh_c²) over that window.
func TestRunLengthCorrelationAccuracy(t *testing.T) {
	const fs = 96000.0
	rng := rand.New(rand.NewSource(36))
	worst := 0.0
	for _, tc := range []struct {
		spb     int
		n       int
		carrier float64
		cfoHz   float64
	}{
		{194, 20000, 1e3, 0},
		{194, 1 << 20, 1e5, 0.5},
		{98, 1 << 18, 1e4, 0.25},
		{64, 1 << 16, 1e5, 0.1},
		{48, 1 << 20, 1e3, 0.5},
		{48, 30000, 1e5, 0},
	} {
		m, err := NewFM0(tc.spb)
		if err != nil {
			t.Fatal(err)
		}
		k := CorrelatorFor(m)
		if got, limit := len(k.breaks), 2*len(PreambleBits)+1; got > limit {
			t.Fatalf("spb %d: %d breakpoints, want ≤ %d", tc.spb, got, limit)
		}
		bb := correlatorStream(rng, m, tc.n, tc.n/3, cmplx.Exp(complex(0, 0.7)))
		w := 2 * math.Pi * tc.cfoHz / fs
		var mean complex128
		for i := range bb {
			s, c := math.Sincos(w*float64(i) + 0.3)
			bb[i] += complex(tc.carrier*c, tc.carrier*s)
			mean += bb[i]
		}
		mean /= complex(float64(len(bb)), 0)
		corr, err := k.Correlate(bb, mean)
		if err != nil {
			t.Fatal(err)
		}
		tmpl := m.EncodeTemplate(PreambleBits)
		hc := make([]float64, len(tmpl))
		tm := dsp.Mean(tmpl)
		hEnergy := 0.0
		for j, v := range tmpl {
			hc[j] = v - tm
			hEnergy += hc[j] * hc[j]
		}
		// Check the first and last alignments, the packet, and a
		// stride across the rest.
		last := len(corr.c) - 1
		check := []int{0, 1, 2, 3, 4, last - 1, last, tc.n / 3}
		for i := 5; i < last; i += 1 + last/200 {
			check = append(check, i)
		}
		for _, i := range check {
			var want complex128
			zEnergy := 0.0
			for j, h := range hc {
				z := bb[i+j] - mean
				want += z * complex(h, 0)
				zEnergy += real(z)*real(z) + imag(z)*imag(z)
			}
			scale := math.Sqrt(zEnergy * hEnergy)
			rel := cmplx.Abs(corr.c[i]-want) / scale
			if rel > 1e-10 {
				t.Fatalf("spb %d n %d carrier %g cfo %g: C[%d] = %v, direct %v (|Δ| = %.3g of the window bound)",
					tc.spb, tc.n, tc.carrier, tc.cfoHz, i, corr.c[i], want, rel)
			}
			worst = max(worst, rel)
		}
	}
	t.Logf("worst |ΔC|/√(Σ|z|²·Σh_c²) = %.3g", worst)
}
