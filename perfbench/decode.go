package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"pab/internal/core"
	"pab/internal/dsp"
	"pab/internal/phy"
	"pab/internal/telemetry"
)

// setupRepeats is how often a run repeats its set-up; setup_s is the
// median.
const setupRepeats = 3

func setupCorpus(seed int64) ([]*recording, float64, error) {
	corpus, closeFn, setupS, err := repeatSetup(setupRepeats, func() ([]*recording, func(), error) {
		c, err := synthCorpus(seed)
		return c, func() {}, err
	})
	if err != nil {
		return nil, 0, err
	}
	closeFn()
	return corpus, setupS, nil
}

// decodeOutcome checks one DecodeUplink result. wrong: the payload
// bits differ from what the node sent, or the decode errored (the
// decode_fail_ratio numerator). failed: the program's output is wrong —
// a CRC-clean frame with bits the node never sent, or an outcome that
// differs from the exchange's own in-line decode of the same recording
// (RunQuery decodes with the same receiver at the same gate, so the two
// must agree exactly).
func decodeOutcome(r *recording, dec *core.Decoded, err error) (wrong, failed bool) {
	ok := err == nil && dec != nil
	wrong = !ok || !sameBits(dec.Bits, r.Sent)
	if ok && !sameBits(dec.Bits, r.Sent) {
		failed = true
	}
	if ok != r.RefOK || (ok && !sameBits(dec.Bits, r.RefBits)) {
		failed = true
	}
	return wrong, failed
}

// runDecode is the decode workload: one closed-loop caller runs
// core.Receiver.DecodeUplink over the corpus, one recording at a time,
// each at its own decode gate.
func runDecode(seed int64, seconds float64, tr *tracer, res *result) error {
	corpus, setupS, err := setupCorpus(seed)
	if err != nil {
		return err
	}
	res.E2E["setup_s"] = setupS
	res.add("setup_s", setupS, "s", fmt.Sprintf("CPU time, median of %d corpus syntheses (%d recordings)", setupRepeats, len(corpus)))
	recv, err := core.NewReceiver(sampleRate)
	if err != nil {
		return err
	}

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	heap := startHeapSampler()
	dur := time.Duration(seconds * float64(time.Second))
	var lat, cpuLat []float64
	var input []int // the corpus entry of each sample
	var wrong int
	// Each call's CPU time is its own thread's: the collector's
	// background workers run beside it on other threads, and their cost
	// shows in decode_per_cpu_s instead.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start, cpuStart := time.Now(), cpuTime()
	var last time.Time
	for i := 0; time.Since(start) < dur; i++ {
		r := corpus[i%len(corpus)]
		sp := tr.start("core.Receiver.DecodeUplink", int64(i), nil)
		t0, c0 := time.Now(), threadCPUTime()
		dec, err := recv.DecodeUplink(r.Pressure, carrierHz, r.Bitrate, r.Gate)
		c1 := threadCPUTime()
		last = time.Now()
		sp.end()
		lat = append(lat, ms(last.Sub(t0)))
		cpuLat = append(cpuLat, ms(c1-c0))
		input = append(input, i%len(corpus))
		w, f := decodeOutcome(r, dec, err)
		if w {
			wrong++
		}
		if f {
			res.Failed++
			res.note("decode of corpus entry %d disagrees with its reference", i%len(corpus))
		}
	}
	cpuLast := cpuTime()
	peak := heap.finish()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	elapsed, cpuS := last.Sub(start).Seconds(), (cpuLast - cpuStart).Seconds()
	n := len(lat)
	res.Attempted = n

	res.add("peak_heap_mb", peak, "MiB", heapNote)
	res.add("decode_per_s", float64(n)/elapsed, "decodes/s", fmt.Sprintf("%d decodes in %.2f s", n, elapsed))
	res.addTail("decode", lat, input)
	perCPU := float64(n) / cpuS
	res.add("decode_per_cpu_s", perCPU, "decodes/s", fmt.Sprintf("%d decodes in %.2f s of process CPU time", n, cpuS))
	p50, tail := res.addTail("decode_cpu", cpuLat, input)
	failRatio := float64(wrong) / float64(n)
	res.add("decode_fail_ratio", failRatio, "ratio", fmt.Sprintf("%d of %d", wrong, n))
	res.E2E["peak_heap_mb"], res.E2E["ops_per_cpu_s"], res.E2E["cpu_ms_p50"], res.E2E["cpu_ms_tail"] = peak, perCPU, p50, tail

	if tr == nil {
		return nil
	}
	res.layer("decode.fail_ratio", failRatio)
	res.layer("decode.alloc_bytes_per_op", float64(after.TotalAlloc-before.TotalAlloc)/float64(n))
	res.layer("decode.gc_per_op", float64(after.NumGC-before.NumGC)/float64(n))
	if err := decodeStageShares(recv, corpus, tr, res); err != nil {
		return err
	}
	if err := kernelTimes(recv, corpus, seed, res); err != nil {
		return err
	}
	telemetryOverhead(recv, corpus, res)
	res.layer("trace.overhead_share", float64(n)*float64(spanCost())/float64(last.Sub(start)))
	// The stream and streamd layers on this corpus's live sequence.
	recs, volts, err := liveSequence(corpus)
	if err != nil {
		return err
	}
	return streamLayers(seed, newLiveSession(recs, volts, 0), tr, res)
}

// decodeStageShares replays the receive chain's stages on one
// recording per stratum and reports each as a share of DecodeUplink on
// the same recording.
func decodeStageShares(recv *core.Receiver, corpus []*recording, tr *tracer, res *result) error {
	nS := corpusSize() / corpusReps
	var total, record, demod, base time.Duration
	for i := 0; i < nS; i++ {
		r := corpus[i]
		req := int64(1_000_000 + i)
		parent := tr.start("decode.replay", req, nil)
		sp := tr.start("core.Receiver.DecodeUplink", req, parent)
		_, _ = recv.DecodeUplink(r.Pressure, carrierHz, r.Bitrate, r.Gate) // outcome checked in the timed loop
		total += sp.end()
		sp = tr.start("hydrophone.Hydrophone.Record", req, parent)
		volts, err := recv.Hydro.Record(r.Pressure)
		record += sp.end()
		if err != nil {
			return err
		}
		sp = tr.start("core.Receiver.Demodulate", req, parent)
		bb, err := recv.Demodulate(volts, carrierHz, r.Bitrate)
		demod += sp.end()
		if err != nil {
			return err
		}
		sp = tr.start("core.Receiver.DecodeBaseband", req, parent)
		_, _ = recv.DecodeBaseband(bb[r.Gate:], r.Bitrate) // near-threshold entries fail here as in DecodeUplink
		base += sp.end()
		parent.end()
	}
	res.layer("hydrophone.record_share", float64(record)/float64(total))
	res.layer("core.demodulate_share", float64(demod)/float64(total))
	res.layer("core.decode_baseband_share", float64(base)/float64(total))
	return nil
}

// kernelTimes times one dsp.FFT at the chain's correlation transform
// size and one preamble cross-correlation over a gated baseband.
func kernelTimes(recv *core.Receiver, corpus []*recording, seed int64, res *result) error {
	r := corpus[0] // the first stratum is a 500 bit/s recording
	volts, err := recv.Hydro.Record(r.Pressure)
	if err != nil {
		return err
	}
	bb, err := recv.Demodulate(volts, carrierHz, r.Bitrate)
	if err != nil {
		return err
	}
	gated := bb[r.Gate:]
	spb, err := phy.SamplesPerBitFor(sampleRate, r.Bitrate)
	if err != nil {
		return err
	}
	fm0, err := phy.NewFM0(spb)
	if err != nil {
		return err
	}
	tmpl := fm0.EncodeTemplate(phy.PreambleBits)
	wave := make([]float64, len(gated))
	for i, v := range gated {
		wave[i] = real(v)
	}
	const reps = 9
	var xc []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		dsp.NormalizedCrossCorrelate(wave, tmpl)
		xc = append(xc, ms(time.Since(t0)))
	}
	n := dsp.NextPow2(len(wave) + len(tmpl) - 1)
	rng := rand.New(rand.NewSource(seed))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	var ft []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		dsp.FFT(x)
		ft = append(ft, ms(time.Since(t0)))
	}
	res.layer("dsp.xcorr_ms", newDist(xc).p50())
	res.layer("dsp.fft_ms", newDist(ft).p50())
	res.add("dsp.fft_size", float64(n), "points", "transform size of the preamble correlation")
	return nil
}

// telemetryOverhead times paired, alternating batches of identical
// decodes with telemetry at its shipped default and switched off. The
// share is the median enabled/disabled ratio minus 1; the spread is
// the distance between the ratios' quartiles.
func telemetryOverhead(recv *core.Receiver, corpus []*recording, res *result) {
	const pairs, batch = 16, 6
	shipped := telemetry.Enabled()
	defer telemetry.SetEnabled(shipped)
	timeBatch := func(on bool) time.Duration {
		telemetry.SetEnabled(on)
		runtime.GC()
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			// A stride through the strata: both pools, mixed rates and noise.
			r := corpus[(i*7)%len(corpus)]
			_, _ = recv.DecodeUplink(r.Pressure, carrierHz, r.Bitrate, r.Gate) // outcome checked in the timed loop
		}
		return time.Since(t0)
	}
	ratios := make([]float64, 0, pairs)
	for k := 0; k < pairs; k++ {
		var on, off time.Duration
		if k%2 == 0 {
			on, off = timeBatch(shipped), timeBatch(false)
		} else {
			off, on = timeBatch(false), timeBatch(shipped)
		}
		ratios = append(ratios, float64(on)/float64(off))
	}
	d := newDist(ratios)
	q1, q3 := d.quartiles()
	res.layer("telemetry.overhead_share", d.p50()-1)
	res.layer("telemetry.overhead_spread", q3-q1)
}
