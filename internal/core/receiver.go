// Package core wires the PAB system together: projector → tank channel →
// battery-free node → hydrophone → offline decoder, at the sample level.
// It is the paper's primary contribution — underwater backscatter
// communication (§3), recto-piezo multiple access (§3.3.1) and collision
// decoding (§3.3.2) — running end to end over the simulated substrates.
package core

import (
	"fmt"
	"math"
	"math/cmplx"
	"sort"

	"pab/internal/dsp"
	"pab/internal/frame"
	"pab/internal/hydrophone"
	"pab/internal/phy"
	"pab/internal/prof"
	"pab/internal/telemetry"
)

// Receiver is the hydrophone-side offline decoder (paper §5.1b): FFT
// carrier identification, downconversion, Butterworth channel filtering,
// packet detection, CFO correction and ML FM0 decoding.
type Receiver struct {
	Hydro      hydrophone.Hydrophone
	SampleRate float64
}

// FilterOrder is the order of the Butterworth channel filter after
// mixing.
const FilterOrder = 4

// detectThreshold is the normalised preamble correlation threshold a
// refined lock must reach.
const detectThreshold = 0.55

// CoarseThreshold is the coarse sync pass's correlation threshold:
// half the lock threshold, capped at 0.3, so a preamble seen at ≥ 1/√2
// of its amplitude on one of two orthogonal projections still
// registers.
const CoarseThreshold = min(detectThreshold/2, 0.3)

// ChannelCutoff is the channel filter's low-pass cutoff at a
// backscatter bitrate: four times the FM0 occupied bandwidth, which
// keeps the bit transitions sharp enough for the half-bit correlators,
// clamped to [200 Hz, fs/4].
func ChannelCutoff(bitrate, fs float64) float64 {
	return min(max(4*phy.OccupiedBandwidth(bitrate), 200), fs/4)
}

// NewReceiver returns the paper's receiver configuration.
func NewReceiver(fs float64) (*Receiver, error) {
	if fs <= 0 {
		return nil, fmt.Errorf("core: sample rate must be positive, got %g", fs)
	}
	hyd := hydrophone.H2a()
	hyd.AutoGain = true // the operator trims the input level to avoid clipping
	return &Receiver{Hydro: hyd, SampleRate: fs}, nil
}

// FindCarriers identifies up to maxN downlink carrier frequencies in a
// recording by FFT peak detection (§5.1b). A carrier must hold at least
// carrierMinShare of the recording's spectral energy, so silence, DC or
// broadband noise yields none.
func (r *Receiver) FindCarriers(recording []float64, maxN int) []float64 {
	// Parseval: the N-point DFT's bins sum to N·Σx² over both halves.
	energy := 0.0
	for _, v := range recording {
		energy += v * v
	}
	minPower := carrierMinShare * float64(len(recording)) * energy
	peaks := dsp.FindPeaks(recording, r.SampleRate, maxN, 1000, minPower)
	out := make([]float64, 0, len(peaks))
	for _, p := range peaks {
		out = append(out, p.Frequency)
	}
	return out
}

// carrierMinShare is the least share of a recording's spectral energy
// (both DFT halves) one bin must hold to count as a carrier. A steady
// tone holds up to 1/2 in its positive-frequency bin, and still about
// 0.2 between bins; white noise's strongest bin holds about ln(N/2)/N,
// 0.1% at N = 8192 samples.
const carrierMinShare = 0.01

// Demodulate mixes the recording down by the carrier and low-pass
// filters, returning the complex baseband whose magnitude is the
// amplitude trace of Fig 2. The cutoff tracks the backscatter bandwidth
// (ChannelCutoff).
func (r *Receiver) Demodulate(recording []float64, carrier, bitrate float64) ([]complex128, error) {
	return r.DemodulateBand(recording, carrier, ChannelCutoff(bitrate, r.SampleRate))
}

// DemodulateBand is Demodulate with an explicit low-pass cutoff — needed
// when concurrent carriers sit close together and the channel filter
// must reject the neighbour (§5.1b's per-channel Butterworth filters).
func (r *Receiver) DemodulateBand(recording []float64, carrier, cutoff float64) ([]complex128, error) {
	if cutoff > r.SampleRate/4 {
		cutoff = r.SampleRate / 4
	}
	return dsp.DownconvertLP(recording, 0, carrier, r.SampleRate, cutoff, FilterOrder)
}

// CoherentWave projects a complex baseband stream onto its modulation
// axis: it removes the mean (the un-modulated direct carrier), estimates
// the modulation phasor direction from the second moment of the
// residual, and returns the real projection. This recovers the full
// backscatter swing even when the reflected path arrives in quadrature
// with the direct carrier — where plain envelope detection sees almost
// nothing (deep multipath fading, the location dependence of Fig 10).
func CoherentWave(bb []complex128) []float64 {
	return projectAxis(bb, estimateAxis(bb))
}

// modAxis is an estimated modulation axis: the carrier mean and the unit
// rotation that brings the modulation onto the real axis.
type modAxis struct {
	mean complex128
	rot  complex128
}

// estimateAxis fits the axis over a segment (ideally one known to
// contain modulation, such as a detected preamble).
func estimateAxis(seg []complex128) modAxis {
	if len(seg) == 0 {
		return modAxis{rot: 1}
	}
	var mean complex128
	for _, v := range seg {
		mean += v
	}
	mean /= complex(float64(len(seg)), 0)
	var acc complex128
	for _, v := range seg {
		d := v - mean
		acc += d * d
	}
	theta := cmplx.Phase(acc) / 2
	return modAxis{mean: mean, rot: cmplx.Exp(complex(0, -theta))}
}

// projectAxis applies an axis estimate to a whole stream.
func projectAxis(bb []complex128, a modAxis) []float64 {
	return projectAxisInto(make([]float64, len(bb)), bb, a)
}

// projectAxisInto is projectAxis writing into dst, which must hold at
// least len(bb) elements. It returns dst[:len(bb)].
func projectAxisInto(dst []float64, bb []complex128, a modAxis) []float64 {
	out := dst[:len(bb)]
	for i, v := range bb {
		out[i] = real((v - a.mean) * a.rot)
	}
	return out
}

// CoherentWaveTracked projects bb onto a slowly *rotating* modulation
// axis: the axis is re-estimated per block and the per-block 180°
// ambiguity is resolved by phase continuity with the previous block.
// This is the mobile-receiver upgrade the paper's §8 anticipates — a
// drifting node Doppler-rotates the backscatter phasor through the
// packet, which a fixed-axis projection smears.
func CoherentWaveTracked(bb []complex128, blockLen int) []float64 {
	if len(bb) == 0 {
		return nil
	}
	if blockLen < 8 || blockLen > len(bb) {
		return CoherentWave(bb)
	}
	out := make([]float64, len(bb))
	prevRot := complex(1, 0)
	havePrev := false
	for start := 0; start < len(bb); start += blockLen {
		end := start + blockLen
		if end > len(bb) {
			end = len(bb)
		}
		a := estimateAxis(bb[start:end])
		if havePrev {
			// The second-moment axis is defined modulo 180°; pick the
			// sign that stays continuous with the previous block.
			if real(a.rot*cmplx.Conj(prevRot)) < 0 {
				a.rot = -a.rot
			}
		}
		prevRot = a.rot
		havePrev = true
		for i := start; i < end; i++ {
			out[i] = real((bb[i] - a.mean) * a.rot)
		}
	}
	return out
}

// Decoded is the result of decoding one uplink packet.
type Decoded struct {
	// Frame is the CRC-verified data frame.
	Frame frame.DataFrame
	// Bits are the raw decoded payload-section bits (post-preamble).
	Bits []phy.Bit
	// SNRLinear is the paper's §6.1a estimate over the packet.
	SNRLinear float64
	// Sync describes where the packet was found.
	Sync phy.Sync
	// CFOHz is the estimated carrier frequency offset.
	CFOHz float64
	// PreambleBitErrors counts re-decoded preamble bits that disagree
	// with the known pattern at the accepted lock (0 on a clean lock).
	PreambleBitErrors int
}

// SNRdB returns the SNR in decibels.
func (d *Decoded) SNRdB() float64 {
	if d.SNRLinear <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(d.SNRLinear)
}

// The receive chain is one staged pipeline that every entry point
// composes:
//
//	front end: [hydrophone record] → gate at searchFrom → mix and filter
//	           from the gate less the filter's settle history → CFO
//	lock:      FM0 at the bitrate → detectRefinedAll → candidate locks
//	then:      decode the locks (CRC arbitration, tracked-Doppler retries)
//	       or  measure the locks (best SNR/BER over the same candidates)
//
// DecodeUplink and RunQuery enter at the record, DecodeVolts at the
// gate, DecodeBaseband at CFO; MeasureUplinkSNR, and RunQuery when
// no lock passes the CRC, measure instead of decoding.

// DecodeUplink runs the full uplink receive chain on a pressure-domain
// recording: record through the hydrophone, demodulate at the carrier,
// detect the FM0 preamble, and decode a length-prefixed data frame at
// the given backscatter bitrate.
//
// searchFrom gates the decoder to the samples after the reader's own
// downlink query: the reader transmitted the query itself, so it knows
// when its PWM keying ended, and the huge downlink amplitude swings
// would otherwise dominate the modulation-axis estimate.
func (r *Receiver) DecodeUplink(pressure []float64, carrier, bitrate float64, searchFrom int) (*Decoded, error) {
	return r.DecodeUplinkTraced(nil, pressure, carrier, bitrate, searchFrom)
}

// DecodeUplinkTraced is DecodeUplink with an optional parent telemetry
// span: the demod → sync → decode stages become child spans, every
// attempt — successful or not — files a telemetry.DecodeReport, and the
// whole chain runs under a stage=decode_uplink pprof label so CPU
// profiles attribute receiver time separately from the rest of a
// simulation job.
func (r *Receiver) DecodeUplinkTraced(parent *telemetry.Span, pressure []float64, carrier, bitrate float64, searchFrom int) (*Decoded, error) {
	dec, _, err := r.decodeUplink(parent, pressure, carrier, bitrate, searchFrom)
	return dec, err
}

// decodeUplink is DecodeUplinkTraced that also returns the candidate
// locks (nil when the chain failed before locking), so a caller can
// measure them when no lock passes the CRC.
func (r *Receiver) decodeUplink(parent *telemetry.Span, pressure []float64, carrier, bitrate float64, searchFrom int) (*Decoded, *locks, error) {
	var dec *Decoded
	var lk *locks
	var err error
	prof.Do(nil, func() {
		lk, err = r.acquire(parent, pressure, true, carrier, bitrate, searchFrom)
		if err == nil {
			dec, err = lk.decode(parent)
		}
	}, "stage", "decode_uplink")
	telemetry.RecordDecode(NewDecodeReport(carrier, bitrate, dec, err))
	if err != nil {
		telemetry.Inc(telemetry.MCoreUplinkDecodeFailuresTotal)
		return nil, lk, err
	}
	telemetry.Inc(telemetry.MCoreUplinkDecodesTotal)
	telemetry.ObserveN(telemetry.MCoreUplinkSnrDb, snrDBBuckets, dec.SNRdB())
	return dec, lk, nil
}

// NewDecodeReport is the telemetry.DecodeReport of one decode attempt
// at a carrier and bitrate: err's text when it failed, otherwise dec's
// lock and slicer statistics (SyncIndex in dec's coordinates).
func NewDecodeReport(carrier, bitrate float64, dec *Decoded, err error) telemetry.DecodeReport {
	rep := telemetry.DecodeReport{CarrierHz: carrier, BitrateBps: bitrate}
	if err != nil {
		rep.Error = err.Error()
		return rep
	}
	rep.Decoded = true
	rep.SlicerSNRdB = dec.SNRdB()
	rep.SyncPeak = dec.Sync.Score
	rep.SyncIndex = dec.Sync.Index
	rep.CFOHz = dec.CFOHz
	rep.PreambleBitErrors = dec.PreambleBitErrors
	rep.PayloadBits = len(dec.Bits)
	return rep
}

// snrDBBuckets cover the paper's operating range (Fig 7: ~3–20 dB).
var snrDBBuckets = []float64{-10, -5, 0, 2, 5, 8, 11, 15, 20, 25, 30}

// DecodeVolts runs the receive chain on a voltage-domain recording — the
// signal as it leaves the hydrophone front end, before any mixing. It is
// DecodeUplink minus the hydrophone stage: demodulate at the carrier,
// gate to searchFrom, correct CFO, and decode at the given bitrate.
// Streaming front ends that capture voltages directly (a sound card, a
// network ingest) enter the batch chain here.
func (r *Receiver) DecodeVolts(volts []float64, carrier, bitrate float64, searchFrom int) (*Decoded, error) {
	lk, err := r.acquire(nil, volts, false, carrier, bitrate, searchFrom)
	if err != nil {
		return nil, err
	}
	return lk.decode(nil)
}

// DecodeBaseband runs the detection and decode half of the chain on
// complex baseband that was mixed and filtered elsewhere — the entry
// point for the block-based receiver in internal/stream, whose window is
// already at baseband. Indices in the result are relative to bb.
func (r *Receiver) DecodeBaseband(bb []complex128, bitrate float64) (*Decoded, error) {
	bb, cfo := r.correctCFOIfReal(bb)
	lk, err := r.lock(nil, bb, cfo, bitrate, 0)
	if err != nil {
		return nil, err
	}
	return lk.decode(nil)
}

// MeasureUplinkSNR decodes as much as possible and returns the SNR even
// when the CRC fails — Fig 7/8 need SNR for packets that do not decode
// cleanly. knownBits, when non-nil, are the transmitted bits (ground
// truth available in the controlled experiments).
func (r *Receiver) MeasureUplinkSNR(pressure []float64, carrier, bitrate float64, knownBits []phy.Bit, searchFrom int) (snrLinear float64, ber float64, err error) {
	lk, err := r.acquire(nil, pressure, true, carrier, bitrate, searchFrom)
	if err != nil {
		return 0, 1, err
	}
	return lk.measure(knownBits)
}

// acquire runs the front end and lock stages on a recording: pressure
// when record is set (it goes through the hydrophone first), otherwise
// hydrophone volts.
func (r *Receiver) acquire(parent *telemetry.Span, recording []float64, record bool, carrier, bitrate float64, searchFrom int) (*locks, error) {
	bb, cfo, err := r.frontEnd(parent, recording, record, carrier, bitrate, searchFrom)
	if err != nil {
		return nil, err
	}
	return r.lock(parent, bb, cfo, bitrate, searchFrom)
}

// frontEnd is the chain's first stage under one demod span: the
// optional hydrophone record, the gate at searchFrom, demodulation of
// the gated span at the carrier, and CFO correction. It returns the
// gated baseband and the applied CFO.
func (r *Receiver) frontEnd(parent *telemetry.Span, recording []float64, record bool, carrier, bitrate float64, searchFrom int) ([]complex128, float64, error) {
	sp := parent.Child("demod")
	defer sp.End()
	searchFrom = max(searchFrom, 0)
	if searchFrom >= len(recording) {
		return nil, 0, fmt.Errorf("core: search start %d beyond recording %d", searchFrom, len(recording))
	}
	cutoff := ChannelCutoff(bitrate, r.SampleRate)
	volts := recording
	if record {
		// Quantise only what DownconvertLP reads: the gated span and
		// the channel filter's settling history before it.
		from, err := dsp.DownconvertLPStart(searchFrom, r.SampleRate, cutoff, FilterOrder)
		if err != nil {
			return nil, 0, err
		}
		st := prof.Start(prof.StageRecord)
		v, err := r.Hydro.RecordFrom(recording, from)
		st.Stop(len(recording) - from)
		if err != nil {
			return nil, 0, err
		}
		volts = v
	}
	// Demodulate only the gated span (plus the filter's settling
	// history): nothing before searchFrom reaches the decoder.
	bb, err := dsp.DownconvertLP(volts, searchFrom, carrier, r.SampleRate, cutoff, FilterOrder)
	if err != nil {
		return nil, 0, err
	}
	// Estimate and remove the projector/hydrophone oscillator offset
	// (footnote 12). Multipath-skewed spectra can bias the estimator, so
	// the correction is only kept when it measurably concentrates the
	// carrier.
	bb, cfo := r.correctCFOIfReal(bb)
	sp.Attr("samples", len(bb)).Attr("cfo_hz", cfo)
	return bb, cfo, nil
}

// locks is the lock stage's result: the candidate packet locks on a
// demodulated, CFO-corrected baseband stream, and one projection buffer
// that holds the stream on one candidate's axis at a time.
type locks struct {
	bb    []complex128
	cfo   float64
	fm0   *phy.FM0
	cands []refinedLock
	// wave is bb projected onto cands[onAxis].axis.
	wave   []float64
	onAxis int
	// offset is added to reported sync indices: the front end gates the
	// stream at searchFrom, results are in pre-gate coordinates.
	offset int
}

// lock is the chain's second stage: the FM0 model at the bitrate and
// every refined candidate lock under one sync span.
func (r *Receiver) lock(parent *telemetry.Span, bb []complex128, cfo, bitrate float64, offset int) (*locks, error) {
	spb, err := phy.SamplesPerBitFor(r.SampleRate, bitrate)
	if err != nil {
		return nil, err
	}
	fm0, err := phy.NewFM0(spb)
	if err != nil {
		return nil, err
	}
	sp := parent.Child("sync")
	defer sp.End()
	cands, wave, err := detectRefinedAll(bb, fm0)
	if err != nil {
		return nil, err
	}
	sp.Attr("candidates", len(cands))
	return &locks{bb: bb, cfo: cfo, fm0: fm0, cands: cands, wave: wave, offset: offset}, nil
}

// waveFor returns the stream projected onto candidate i's axis,
// re-projecting the shared buffer only when it holds another
// candidate's.
func (l *locks) waveFor(i int) []float64 {
	if i != l.onAxis {
		projectAxisInto(l.wave, l.bb, l.cands[i].axis)
		l.onAxis = i
	}
	return l.wave
}

// decode is the chain's decode stage: it tries the candidate locks in
// score order and returns the first that passes the CRC, with its
// indices in pre-gate coordinates.
func (l *locks) decode(parent *telemetry.Span) (*Decoded, error) {
	sp := parent.Child("decode")
	defer sp.End()
	st := prof.Start(prof.StageDecode)
	defer st.Stop(len(l.bb))
	dec, err := l.decodeAny()
	if err != nil {
		return nil, err
	}
	dec.Sync.Index += l.offset
	dec.Sync.PayloadIndex += l.offset
	dec.CFOHz = l.cfo
	return dec, nil
}

// decodeAny returns the first decode that passes the CRC, in gated
// coordinates.
func (l *locks) decodeAny() (*Decoded, error) {
	// The CRC arbitrates which lock is the real packet (payload structure
	// can out-correlate the preamble under heavy ISI).
	var firstErr error
	for i, c := range l.cands {
		dec, err := decodeAt(l.bb, l.waveFor(i), c.sync, l.fm0)
		if err == nil {
			return dec, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	// Last resort: a Doppler-rotating channel (moving node) smears every
	// fixed-axis projection; retry on block-tracked projections, finer
	// blocks tolerating faster rotation at the cost of noisier per-block
	// axis estimates.
	preLen := len(phy.PreambleBits) * l.fm0.SamplesPerBit
	for _, block := range []int{preLen, preLen / 2, preLen / 4} {
		tracked := CoherentWaveTracked(l.bb, block)
		sync, err := phy.DetectPacket(tracked, l.fm0, detectThreshold)
		if err != nil {
			continue
		}
		if dec, err := decodeAt(l.bb, tracked, sync, l.fm0); err == nil {
			return dec, nil
		}
	}
	return nil, firstErr
}

// measure evaluates every candidate lock and keeps the one with the
// highest measured SNR — the same arbitration decode gets from the CRC,
// available here even when the packet is too corrupted to pass. BER is
// against knownBits (0 when nil).
func (l *locks) measure(knownBits []phy.Bit) (snrLinear, ber float64, err error) {
	best := -1.0
	bestBER := 1.0
	for i, c := range l.cands {
		wave := l.waveFor(i)
		n := len(knownBits)
		if n == 0 {
			n = (len(wave) - c.sync.Index) / l.fm0.SamplesPerBit
		}
		got, _ := l.fm0.DecodeFrom(wave[c.sync.Index:], n, c.sync.StartLevel)
		snr := phy.MeasureSNR(wave[c.sync.Index:], got, l.fm0)
		if snr > best {
			best = snr
			if knownBits != nil {
				bestBER = phy.BER(knownBits, got)
			} else {
				bestBER = 0
			}
		}
	}
	if best < 0 {
		return 0, 1, fmt.Errorf("core: no usable candidate lock")
	}
	return best, bestBER, nil
}

// decodeAt decodes a length-prefixed data frame at a detected lock.
func decodeAt(bb []complex128, env []float64, sync phy.Sync, fm0 *phy.FM0) (*Decoded, error) {
	// Decode the header first to learn the payload length, then the
	// whole frame.
	headerBits, _ := fm0.DecodeFrom(env[sync.PayloadIndex:], 24, sync.PayloadLevel)
	if len(headerBits) < 24 {
		return nil, fmt.Errorf("core: truncated header: %d bits", len(headerBits))
	}
	header, err := frame.FromBits(headerBits)
	if err != nil {
		return nil, err
	}
	payloadLen := int(header[2])
	if payloadLen > frame.MaxPayload {
		return nil, fmt.Errorf("core: implausible payload length %d", payloadLen)
	}
	total := frame.DataFrameBitLength(payloadLen)
	bits, _ := fm0.DecodeFrom(env[sync.PayloadIndex:], total, sync.PayloadLevel)
	if len(bits) < total {
		return nil, fmt.Errorf("core: truncated frame: %d of %d bits", len(bits), total)
	}
	raw, err := frame.FromBits(bits)
	if err != nil {
		return nil, err
	}
	df, err := frame.UnmarshalDataFrame(raw)
	if err != nil {
		return nil, err // CRC failure — MAC layer requests retransmission
	}

	// SNR over preamble + frame, the §6.1a way. With the packet extent
	// now confirmed by the CRC, re-estimate the modulation axis over
	// exactly that extent (the best available channel estimate) and
	// search a small alignment neighbourhood — multipath can shift the
	// correlation peak a few samples off the energy-optimal point.
	allBits := append(append([]phy.Bit{}, phy.PreambleBits...), bits...)
	packetLen := len(allBits) * fm0.SamplesPerBit
	endIdx := sync.Index + packetLen
	if endIdx > len(bb) {
		endIdx = len(bb)
	}
	span := fm0.SamplesPerBit / 4
	step := fm0.SamplesPerBit / 16
	if step < 1 {
		step = 1
	}
	// Project only the packet window (± the alignment span): the SNR
	// search never reads outside it, and projecting the whole recording
	// allocated len(bb) floats per decode.
	winLo := sync.Index - span
	if winLo < 0 {
		winLo = 0
	}
	winHi := endIdx + span
	if winHi > len(bb) {
		winHi = len(bb)
	}
	refined := projectAxis(bb[winLo:winHi], estimateAxis(bb[sync.Index:endIdx]))
	snr := 0.0
	for _, w := range [...]struct {
		wave []float64
		base int // index of wave[0] in recording coordinates
	}{{env, 0}, {refined, winLo}} {
		for off := -span; off <= span; off += step {
			idx := sync.Index + off - w.base
			if idx < 0 || idx >= len(w.wave) {
				continue
			}
			if s := phy.MeasureSNR(w.wave[idx:], allBits, fm0); s > snr {
				snr = s
			}
		}
	}

	// Re-decode the preamble region against the known pattern — a
	// per-packet lock-quality diagnostic (bit errors inside the preamble
	// mean the correlator locked on a degraded or offset template).
	preErrs := 0
	preBits, _ := fm0.DecodeFrom(env[sync.Index:], len(phy.PreambleBits), sync.StartLevel)
	for i, b := range preBits {
		if b != phy.PreambleBits[i] {
			preErrs++
		}
	}

	return &Decoded{
		Frame:             df,
		Bits:              bits,
		SNRLinear:         snr,
		Sync:              sync,
		PreambleBitErrors: preErrs,
	}, nil
}

// refinedLock is one candidate packet lock: the modulation axis
// re-estimated over the candidate's preamble, and the lock found on the
// stream's projection onto it.
type refinedLock struct {
	axis modAxis
	sync phy.Sync
}

// detectRefinedAll runs two-pass coherent detection and returns every
// surviving candidate lock, best refined score first, with the stream
// projected onto the best lock's axis. Callers try the locks in order
// and reuse that buffer for each later lock's projection. A coarse pass
// with the axis estimated over the whole stream locates candidate
// preambles; then the axis is re-estimated over each candidate's
// preamble alone — where the modulation is guaranteed present — and
// the candidate is re-detected on the refined projection. This is the
// per-packet channel estimation of the paper's receiver (§5.1b).
//
// Every projection is scored from one complex correlation of the
// stream (phy.Correlator), so the whole search costs one correlation,
// and only the best lock is projected here.
func detectRefinedAll(bb []complex128, fm0 *phy.FM0) ([]refinedLock, []float64, error) {
	st := prof.Start(prof.StageSync)
	defer st.Stop(len(bb))
	// The global second-moment axis can sit arbitrarily far from the
	// true modulation axis when the stream is mostly unmodulated
	// carrier, leaving the real preamble buried on the coarse
	// projection. Search two orthogonal coarse projections — the signal
	// appears at ≥ 1/√2 of its amplitude on at least one of them.
	axis := estimateAxis(bb)
	corr, err := phy.CorrelatorFor(fm0).Correlate(bb, axis.mean)
	if err != nil {
		return nil, nil, fmt.Errorf("core: no preamble candidates on either projection")
	}
	preambleLen := len(phy.PreambleBits) * fm0.SamplesPerBit
	cands := make([]phy.Sync, 0, 16) // two projections × maxK=8 below
	for _, rot := range [...]complex128{axis.rot, axis.rot * complex(0, 1)} {
		cs, err := corr.Candidates(rot, 0, len(bb), CoarseThreshold, 8, preambleLen)
		if err != nil {
			continue
		}
		cands = append(cands, cs...)
	}
	if len(cands) == 0 {
		return nil, nil, fmt.Errorf("core: no preamble candidates on either projection")
	}
	out := make([]refinedLock, 0, len(cands))
	for _, cand := range cands {
		a := estimateAxis(bb[cand.Index:min(cand.Index+preambleLen, len(bb))])
		// Re-detect only in a small window around this candidate: a
		// global re-detect would let every candidate's refined wave
		// converge onto the single strongest peak, collapsing the
		// candidate set before the CRC can arbitrate.
		lo := max(cand.Index-fm0.SamplesPerBit, 0)
		hi := min(cand.Index+fm0.SamplesPerBit+preambleLen, len(bb))
		syncs, err := corr.Candidates(a.rot, lo, hi, detectThreshold, 1, 0)
		if err != nil {
			continue
		}
		out = append(out, refinedLock{axis: a, sync: syncs[0]})
	}
	if len(out) == 0 {
		return nil, nil, fmt.Errorf("core: no candidate packet survived axis refinement")
	}
	sort.Slice(out, func(a, b int) bool { return out[a].sync.Score > out[b].sync.Score })
	// Deduplicate locks that converged to the same index.
	dedup := out[:1]
	for _, c := range out[1:] {
		seen := false
		for _, d := range dedup {
			if abs(c.sync.Index-d.sync.Index) < preambleLen/2 {
				seen = true
				break
			}
		}
		if !seen {
			//pablint:ignore allocloop dedup reslices out's backing array (cap ≥ len(out) bounds every append); no reallocation possible
			dedup = append(dedup, c)
		}
	}
	return dedup, projectAxis(bb, dedup[0].axis), nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// correctCFOIfReal estimates the carrier frequency offset and applies
// the correction only when it concentrates the carrier (|Σbb|/Σ|bb|
// rises) — a spurious estimate from a multipath-skewed spectrum would
// otherwise smear a perfectly coherent stream.
func (r *Receiver) correctCFOIfReal(bb []complex128) ([]complex128, float64) {
	cfo := phy.EstimateCFO(bb, r.SampleRate)
	if math.Abs(cfo) <= 0.5 {
		return bb, cfo
	}
	corrected := phy.CorrectCFO(bb, cfo, r.SampleRate)
	if carrierConcentration(corrected) > carrierConcentration(bb) {
		return corrected, cfo
	}
	return bb, 0
}

// carrierConcentration measures how coherent the dominant carrier is:
// 1.0 for a pure phasor, → 0 as rotation spreads it.
func carrierConcentration(bb []complex128) float64 {
	if len(bb) == 0 {
		return 0
	}
	var sum complex128
	var mag float64
	for _, v := range bb {
		sum += v
		mag += cmplx.Abs(v)
	}
	if mag == 0 {
		return 0
	}
	return cmplx.Abs(sum) / mag
}
