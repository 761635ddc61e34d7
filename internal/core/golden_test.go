package core

import (
	"encoding/json"
	"flag"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pab/internal/channel"
	"pab/internal/frame"
	"pab/internal/phy"
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
	var out []goldenExchange
	i := 0
	for rep := 0; rep < goldenReps; rep++ {
		for _, noise := range goldenNoisePa {
			for _, br := range goldenBitrates {
				for _, pool := range goldenPools {
					rng := rand.New(rand.NewSource(1_000_003 + int64(i)))
					i++
					out = append(out, goldenRun(t, rng, pool.name, pool.tank(), pool.box, br, noise, rep%2 == 1))
				}
			}
		}
	}
	return out
}

// goldenRun draws node positions until the node powers up and answers
// the query, then decodes that exchange's recording.
func goldenRun(t *testing.T, rng *rand.Rand, pool string, tank channel.Tank, box [2]channel.Vec3, bitrate, noise float64, readSensor bool) goldenExchange {
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
		g := goldenExchange{Pool: pool, BitrateBps: n.Bitrate(), NoisePa: noise, Seed: cfg.Seed}
		recv := link.Receiver()
		dec, err := recv.DecodeUplink(res.Recording, cfg.CarrierHz, n.Bitrate(), res.DecodeGate)
		if err == nil {
			g.OK = true
			g.Bits = bitString(dec.Bits)
			g.SyncIndex = dec.Sync.Index
			g.SyncScore = dec.Sync.Score
			g.SNRLinear = dec.SNRLinear
			g.CFOHz = dec.CFOHz
		}
		snr, ber, err := recv.MeasureUplinkSNR(res.Recording, cfg.CarrierHz, n.Bitrate(), res.UplinkBits, res.DecodeGate)
		if err == nil {
			g.MeasureOK, g.MeasureSNR, g.MeasureBER = true, snr, ber
		}
		return g
	}
	t.Fatalf("%s %g bit/s %g Pa: no powered, answering node position", pool, bitrate, noise)
	return goldenExchange{}
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

// TestDecodeRunsOneSyncStage pins the sync stage's shape: a decode that
// locks on its first candidate runs one preamble correlation (one sync
// stage call), however many projections and refinement windows it
// scores.
func TestDecodeRunsOneSyncStage(t *testing.T) {
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
	was := telemetry.Enabled()
	telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(was)
	syncCalls := func() int64 {
		return telemetry.Default().Snapshot().Histograms[string(telemetry.MProfStageSyncSeconds)].Count
	}
	before := syncCalls()
	if _, err := link.Receiver().DecodeUplink(res.Recording, cfg.CarrierHz, n.Bitrate(), res.DecodeGate); err != nil {
		t.Fatal(err)
	}
	if calls := syncCalls() - before; calls != 1 {
		t.Fatalf("decode ran %d sync stage calls, want 1", calls)
	}
}
