package core

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"pab/internal/channel"
	"pab/internal/dsp"
	"pab/internal/frame"
	"pab/internal/phy"
	"pab/internal/prof"
	"pab/internal/sensors"
	"pab/internal/telemetry"
)

var updateDecodeGolden = flag.Bool("update", false, "rewrite testdata/decode_golden.json from the current receiver")

// decodeGoldenPath pins the receiver's outcome on a seeded exchange
// corpus. Regenerate it (go test ./internal/core -run
// TestDecodeGolden -update) only when a change is meant to alter decode
// outcomes, and say why in the commit.
var decodeGoldenPath = filepath.Join("testdata", "decode_golden.json")

// goldenExchange is one exchange of the corpus and the receiver's
// outcome on its recording: DecodeUplink's result and MeasureUplinkSNR's
// measurement against the bits the node actually sent.
type goldenExchange struct {
	Pool       string  `json:"pool"`
	BitrateBps float64 `json:"bitrate_bps"`
	NoisePa    float64 `json:"noise_pa"`
	Seed       int64   `json:"seed"`
	// DecodeUplink outcome.
	OK        bool    `json:"ok"`
	Bits      string  `json:"bits,omitempty"`
	SyncIndex int     `json:"sync_index,omitempty"`
	SyncScore float64 `json:"sync_score,omitempty"`
	SNRLinear float64 `json:"snr_linear,omitempty"`
	CFOHz     float64 `json:"cfo_hz,omitempty"`
	// MeasureUplinkSNR outcome.
	MeasureOK  bool    `json:"measure_ok"`
	MeasureSNR float64 `json:"measure_snr,omitempty"`
	MeasureBER float64 `json:"measure_ber,omitempty"`

	// cfg and query replay the exchange: a link built from cfg, powered
	// and sent query, records the same exchange again.
	cfg   LinkConfig
	query frame.Query
}

// goldenStrata span both pools, the four bitrates on the paper node's
// clock grid and three noise levels: a quiet tank, a busy one, and one
// that puts a share of links near the decode threshold.
var (
	goldenPools = []struct {
		name string
		tank func() channel.Tank
		// box bounds node positions near the reader where a paper node
		// can harvest enough to boot.
		box [2]channel.Vec3
	}{
		{"pool_a", channel.PoolA, [2]channel.Vec3{{X: 0.9, Y: 0.9, Z: 0.3}, {X: 1.6, Y: 1.8, Z: 1.0}}},
		{"pool_b", channel.PoolB, [2]channel.Vec3{{X: 0.2, Y: 1.0, Z: 0.3}, {X: 1.0, Y: 2.0, Z: 0.8}}},
	}
	goldenBitrates = []float64{500, 1000, 1500, 2000}
	goldenNoisePa  = []float64{0.5, 60, 200}
)

const goldenReps = 2

// goldenCorpus runs the corpus's exchanges and records the receiver's
// outcome on each.
func goldenCorpus(t *testing.T) []goldenExchange {
	t.Helper()
	out := make([]goldenExchange, 0, goldenSize)
	for i := range goldenSize {
		g, _ := goldenCase(t, i)
		out = append(out, g)
	}
	return out
}

// goldenSize is the number of exchanges in the corpus.
var goldenSize = goldenReps * len(goldenNoisePa) * len(goldenBitrates) * len(goldenPools)

// goldenCase runs the corpus's i-th exchange and returns it with the
// exchange's result. The pool varies fastest, then the bitrate, the
// noise level and the repetition.
func goldenCase(t testing.TB, i int) (goldenExchange, *ExchangeResult) {
	t.Helper()
	pool := goldenPools[i%len(goldenPools)]
	j := i / len(goldenPools)
	br := goldenBitrates[j%len(goldenBitrates)]
	j /= len(goldenBitrates)
	noise := goldenNoisePa[j%len(goldenNoisePa)]
	rep := j / len(goldenNoisePa)
	rng := rand.New(rand.NewSource(1_000_003 + int64(i)))
	return goldenRun(t, rng, pool.name, pool.tank(), pool.box, br, noise, rep%2 == 1)
}

// goldenRun draws node positions until the node powers up and answers
// the query, then decodes that exchange's recording.
func goldenRun(t testing.TB, rng *rand.Rand, pool string, tank channel.Tank, box [2]channel.Vec3, bitrate, noise float64, readSensor bool) (goldenExchange, *ExchangeResult) {
	t.Helper()
	q := frame.Query{Dest: 0x01, Command: frame.CmdPing}
	if readSensor {
		q = frame.Query{Dest: 0x01, Command: frame.CmdReadSensor, Param: byte(frame.SensorTemperature)}
	}
	for draw := 0; draw < 100; draw++ {
		cfg := DefaultLinkConfig()
		cfg.Tank = tank
		cfg.NoiseRMS = noise
		cfg.NodePos = channel.Vec3{
			X: box[0].X + rng.Float64()*(box[1].X-box[0].X),
			Y: box[0].Y + rng.Float64()*(box[1].Y-box[0].Y),
			Z: box[0].Z + rng.Float64()*(box[1].Z-box[0].Z),
		}
		cfg.Seed = rng.Int63n(1<<40) + 1
		link := goldenLink(t, cfg, bitrate)
		if link.EnsurePowered(60) != nil {
			continue
		}
		res, err := link.RunQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.UplinkBits == nil {
			continue // the node missed the query: no uplink to decode
		}
		n := link.Node()
		g := goldenExchange{Pool: pool, BitrateBps: n.Bitrate(), NoisePa: noise, Seed: cfg.Seed, cfg: cfg, query: q}
		name := fmt.Sprintf("%s %g bit/s %g Pa", pool, n.Bitrate(), noise)
		recv := link.Receiver()
		dec, err := recv.DecodeUplink(res.Recording, cfg.CarrierHz, n.Bitrate(), res.DecodeGate)
		if err == nil {
			g.OK = true
			g.Bits = bitString(dec.Bits)
			g.SyncIndex = dec.Sync.Index
			g.SyncScore = dec.Sync.Score
			g.SNRLinear = dec.SNRLinear
			g.CFOHz = dec.CFOHz
			// RunQuery's own decode is the same decode.
			if res.Decoded == nil || bitString(res.Decoded.Bits) != g.Bits || res.Decoded.Sync.Index != g.SyncIndex {
				t.Errorf("%s: RunQuery decode %+v disagrees with DecodeUplink (index %d, bits %q)", name, res.Decoded, g.SyncIndex, g.Bits)
			}
		}
		snr, ber, err := recv.MeasureUplinkSNR(res.Recording, cfg.CarrierHz, n.Bitrate(), res.UplinkBits, res.DecodeGate)
		if err == nil {
			g.MeasureOK, g.MeasureSNR, g.MeasureBER = true, snr, ber
		}
		// When the CRC fails, RunQuery falls back to the measurement.
		if !g.OK {
			switch {
			case !g.MeasureOK:
				if res.Decoded != nil || res.UplinkBER != 1 {
					t.Errorf("%s: RunQuery reports %+v, BER %g; MeasureUplinkSNR found no lock", name, res.Decoded, res.UplinkBER)
				}
			case res.Decoded == nil:
				t.Errorf("%s: RunQuery reports no SNR; MeasureUplinkSNR measured %g", name, snr)
			case !closeRel(res.Decoded.SNRLinear, snr, 1e-9) || !closeRel(res.UplinkBER, ber, 1e-9):
				t.Errorf("%s: RunQuery fallback SNR %.17g BER %.17g, MeasureUplinkSNR %.17g %.17g",
					name, res.Decoded.SNRLinear, res.UplinkBER, snr, ber)
			}
		}
		return g, res
	}
	t.Fatalf("%s %g bit/s %g Pa: no powered, answering node position", pool, bitrate, noise)
	return goldenExchange{}, nil
}

// goldenLink builds a fresh paper node, projector and link on cfg.
func goldenLink(t testing.TB, cfg LinkConfig, bitrate float64) *Link {
	t.Helper()
	n, err := NewPaperNode(0x01, bitrate, sensors.RoomTank())
	if err != nil {
		t.Fatal(err)
	}
	proj, err := NewPaperProjector(cfg.SampleRate)
	if err != nil {
		t.Fatal(err)
	}
	link, err := NewLink(cfg, n, proj)
	if err != nil {
		t.Fatal(err)
	}
	return link
}

func bitString(bits []phy.Bit) string {
	var b strings.Builder
	for _, v := range bits {
		b.WriteByte('0' + byte(v))
	}
	return b.String()
}

// TestDecodeGolden is the receiver's equivalence oracle: on a seeded
// corpus of simulated exchanges (Pool A/B × four clock-grid bitrates ×
// 0.5/60/200 Pa noise), every decode outcome, payload bit and sync
// index must match the committed file exactly, and sync scores, SNR
// estimates and CFO within 1e-9 relative. Arithmetic-only changes to the
// receive chain must keep it passing.
func TestDecodeGolden(t *testing.T) {
	got := goldenCorpus(t)
	if *updateDecodeGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(decodeGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(decodeGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(decodeGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenExchange
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("corpus has %d exchanges, golden %d", len(got), len(want))
	}
	decoded, measured := 0, 0
	for i := range want {
		g, w := got[i], want[i]
		name := func() string {
			return w.Pool + " " + formatG(w.BitrateBps) + " bit/s " + formatG(w.NoisePa) + " Pa"
		}
		if g.Pool != w.Pool || g.BitrateBps != w.BitrateBps || g.NoisePa != w.NoisePa || g.Seed != w.Seed {
			t.Fatalf("exchange %d: corpus drifted: got %+v, golden %+v", i, g, w)
		}
		if g.OK != w.OK || g.Bits != w.Bits || g.SyncIndex != w.SyncIndex {
			t.Errorf("exchange %d (%s): decode ok=%v index=%d bits=%q, golden ok=%v index=%d bits=%q",
				i, name(), g.OK, g.SyncIndex, g.Bits, w.OK, w.SyncIndex, w.Bits)
			continue
		}
		for _, f := range []struct {
			what      string
			got, want float64
		}{
			{"sync score", g.SyncScore, w.SyncScore},
			{"SNR", g.SNRLinear, w.SNRLinear},
			{"CFO", g.CFOHz, w.CFOHz},
			{"measured SNR", g.MeasureSNR, w.MeasureSNR},
			{"measured BER", g.MeasureBER, w.MeasureBER},
		} {
			if !closeRel(f.got, f.want, 1e-9) {
				t.Errorf("exchange %d (%s): %s %.17g, golden %.17g", i, name(), f.what, f.got, f.want)
			}
		}
		if g.MeasureOK != w.MeasureOK {
			t.Errorf("exchange %d (%s): MeasureUplinkSNR ok=%v, golden %v", i, name(), g.MeasureOK, w.MeasureOK)
		}
		if w.OK {
			decoded++
		}
		if w.MeasureOK {
			measured++
		}
	}
	// The corpus must exercise both outcomes, or it pins nothing about
	// the failure path.
	if decoded == 0 || decoded == len(want) {
		t.Errorf("golden corpus decodes %d of %d exchanges; want a mix", decoded, len(want))
	}
	t.Logf("%d exchanges: %d decode, %d measure", len(want), decoded, measured)
}

// closeRel reports |a−b| ≤ tol·max(|a|,|b|), treating equal values
// (including ±Inf) as close.
func closeRel(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func formatG(v float64) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// pingExchange runs one powered 500 bit/s ping exchange in the room
// tank and returns its link, configuration and result.
func pingExchange(t *testing.T) (*Link, LinkConfig, *ExchangeResult) {
	t.Helper()
	cfg := DefaultLinkConfig()
	n, err := NewPaperNode(0x01, 500, sensors.RoomTank())
	if err != nil {
		t.Fatal(err)
	}
	proj, err := NewPaperProjector(cfg.SampleRate)
	if err != nil {
		t.Fatal(err)
	}
	link, err := NewLink(cfg, n, proj)
	if err != nil {
		t.Fatal(err)
	}
	if err := link.EnsurePowered(120); err != nil {
		t.Fatal(err)
	}
	res, err := link.RunQuery(frame.Query{Dest: 0x01, Command: frame.CmdPing})
	if err != nil {
		t.Fatal(err)
	}
	return link, cfg, res
}

// BenchmarkDecodeUplinkGolden times DecodeUplink over the golden
// corpus's recordings: both pools, the four clock-grid bitrates and
// three noise levels, near-threshold failures included. One op decodes
// every recording; synthesis runs before the timer.
func BenchmarkDecodeUplinkGolden(b *testing.B) {
	type recording struct {
		pressure         []float64
		carrier, bitrate float64
		gate             int
	}
	recs := make([]recording, 0, goldenSize)
	for i := range goldenSize {
		g, res := goldenCase(b, i)
		recs = append(recs, recording{res.Recording, g.cfg.CarrierHz, g.BitrateBps, res.DecodeGate})
	}
	recv, err := NewReceiver(DefaultLinkConfig().SampleRate)
	if err != nil {
		b.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for range b.N {
		for _, r := range recs {
			_, _ = recv.DecodeUplink(r.pressure, r.carrier, r.bitrate, r.gate) // near-threshold exchanges fail by design
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	decodes := float64(b.N * len(recs))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/decodes, "ms/decode")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/decodes, "B/decode")
}

// BenchmarkRunQueryPolls times a reader polling a node: one op builds
// and powers a fresh link outside the timer, then polls it three times
// with the same ping, so the first poll synthesises the downlink and
// the repeats reuse it. Ops cycle through both pools (node at the centre
// of the pool's power-up box) and the four clock-grid bitrates.
func BenchmarkRunQueryPolls(b *testing.B) {
	const polls = 3
	q := frame.Query{Dest: 0x01, Command: frame.CmdPing}
	var allocated uint64
	var before, after runtime.MemStats
	b.StopTimer()
	for i := range b.N {
		pool := goldenPools[i%len(goldenPools)]
		cfg := DefaultLinkConfig()
		cfg.Tank = pool.tank()
		lo, hi := pool.box[0], pool.box[1]
		cfg.NodePos = channel.Vec3{X: (lo.X + hi.X) / 2, Y: (lo.Y + hi.Y) / 2, Z: (lo.Z + hi.Z) / 2}
		link := goldenLink(b, cfg, goldenBitrates[(i/len(goldenPools))%len(goldenBitrates)])
		if err := link.EnsurePowered(60); err != nil {
			b.Fatal(err)
		}
		runtime.ReadMemStats(&before)
		b.StartTimer()
		for range polls {
			res, err := link.RunQuery(q)
			if err != nil {
				b.Fatal(err)
			}
			if res.Decoded == nil {
				b.Fatalf("%s at %g bit/s: no decode", pool.name, link.Node().Bitrate())
			}
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		allocated += after.TotalAlloc - before.TotalAlloc
	}
	exchanges := float64(b.N * polls)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/exchanges, "ms/exchange")
	b.ReportMetric(float64(allocated)/exchanges, "B/exchange")
}

// TestDecodeRunsOneSyncStage pins the sync stage's shape: a decode that
// locks on its first candidate runs one preamble correlation (one sync
// stage call), however many projections and refinement windows it
// scores.
func TestDecodeRunsOneSyncStage(t *testing.T) {
	link, cfg, res := pingExchange(t)
	was := telemetry.Enabled()
	telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(was)
	syncCalls := func() int64 {
		return telemetry.Default().Snapshot().Histograms[string(telemetry.MProfStageSyncSeconds)].Count
	}
	before := syncCalls()
	if _, err := link.Receiver().DecodeUplink(res.Recording, cfg.CarrierHz, link.Node().Bitrate(), res.DecodeGate); err != nil {
		t.Fatal(err)
	}
	if calls := syncCalls() - before; calls != 1 {
		t.Fatalf("decode ran %d sync stage calls, want 1", calls)
	}
}

// TestDecodeDemodulatesGatedSpan pins the front end's work: a decode
// gated past the reader's query records, mixes and filters the gated
// span and the channel filter's settle history, not the whole
// recording.
func TestDecodeDemodulatesGatedSpan(t *testing.T) {
	link, cfg, res := pingExchange(t)
	bitrate := link.Node().Bitrate()
	lp, err := dsp.DesignButterworthLowpass(ChannelCutoff(bitrate, cfg.SampleRate), cfg.SampleRate, FilterOrder)
	if err != nil {
		t.Fatal(err)
	}
	want := len(res.Recording) - max(res.DecodeGate-lp.Settle(), 0)
	if want == len(res.Recording) {
		t.Fatalf("gate %d within the filter's settle history %d; the exchange pins nothing", res.DecodeGate, lp.Settle())
	}

	was := telemetry.Enabled()
	telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(was)
	lastID := uint64(0)
	for _, sp := range telemetry.Default().Snapshot().Spans {
		lastID = max(lastID, sp.ID)
	}
	if _, err := link.Receiver().DecodeUplink(res.Recording, cfg.CarrierHz, bitrate, res.DecodeGate); err != nil {
		t.Fatal(err)
	}
	var fresh []telemetry.SpanRecord
	for _, sp := range telemetry.Default().Snapshot().Spans {
		if sp.ID > lastID {
			fresh = append(fresh, sp)
		}
	}
	stages := prof.CollectStageStats(fresh)
	for _, st := range []prof.Stage{prof.StageRecord, prof.StageDownconvert, prof.StageFilter} {
		got := stages[st.Key]
		if got.Count != 1 || got.TotalSamples != int64(want) {
			t.Errorf("%s: %d calls over %d samples, want 1 over %d (recording %d, gate %d, settle %d)",
				st.Key, got.Count, got.TotalSamples, want, len(res.Recording), res.DecodeGate, lp.Settle())
		}
	}
}

// TestFailedQueryRunsOneFrontEnd pins RunQuery's receive chain to one
// pass: on an exchange whose uplink fails the CRC, the SNR and BER
// fallback reuses the decode's candidate locks, so the exchange runs
// one downconversion, one channel filter and exactly the sync stage
// calls of one DecodeUplink on its recording.
func TestFailedQueryRunsOneFrontEnd(t *testing.T) {
	b, err := os.ReadFile(decodeGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenExchange
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	idx := -1
	for i, w := range want {
		if w.NoisePa == 200 && !w.OK && w.MeasureOK {
			idx = i
			break
		}
	}
	if idx < 0 {
		t.Fatal("golden corpus has no measured-but-undecoded 200 Pa exchange")
	}
	g, _ := goldenCase(t, idx)
	if g.OK || !g.MeasureOK {
		t.Fatalf("exchange %d: decode ok=%v measure ok=%v, want a measured failure", idx, g.OK, g.MeasureOK)
	}
	link := goldenLink(t, g.cfg, g.BitrateBps)
	if err := link.EnsurePowered(60); err != nil {
		t.Fatal(err)
	}

	was := telemetry.Enabled()
	telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(was)
	calls := func() (downconvert, filter, sync int64) {
		h := telemetry.Default().Snapshot().Histograms
		return h[string(telemetry.MProfStageDownconvertSeconds)].Count,
			h[string(telemetry.MProfStageFilterSeconds)].Count,
			h[string(telemetry.MProfStageSyncSeconds)].Count
	}
	d0, f0, s0 := calls()
	res, err := link.RunQuery(g.query)
	if err != nil {
		t.Fatal(err)
	}
	d1, f1, s1 := calls()
	if res.Decoded == nil || !closeRel(res.Decoded.SNRLinear, g.MeasureSNR, 1e-9) {
		t.Fatalf("replayed exchange reports %+v, want the measured SNR %g", res.Decoded, g.MeasureSNR)
	}
	if _, err := link.Receiver().DecodeUplink(res.Recording, g.cfg.CarrierHz, g.BitrateBps, res.DecodeGate); err == nil {
		t.Fatal("replayed exchange decodes; want a CRC failure")
	}
	_, _, s2 := calls()
	if d1-d0 != 1 || f1-f0 != 1 {
		t.Errorf("RunQuery ran %d downconvert and %d filter stage calls, want 1 each", d1-d0, f1-f0)
	}
	if s1-s0 != s2-s1 {
		t.Errorf("RunQuery ran %d sync stage calls, one DecodeUplink %d", s1-s0, s2-s1)
	}
}
