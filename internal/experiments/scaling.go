package experiments

import (
	"fmt"
	"io"
	"math"

	"pab/internal/channel"
	"pab/internal/core"
	"pab/internal/frame"
	"pab/internal/phy"
	"pab/internal/sensors"
)

// ScalingRow is one fleet-size operating point of the §8 scaling study
// ("the gain from FDMA scales as the number of nodes with different
// resonance frequencies increases ... limited by the efficiency and
// bandwidth of the piezoelectric transducer design").
type ScalingRow struct {
	Channels      int
	BandLowHz     float64
	BandHighHz    float64
	Replies       int
	GoodputBps    float64
	AirtimeS      float64
	WorstSNRdB    float64
	AllNodesAlive bool
}

// ScalingConfig tunes the sweep.
type ScalingConfig struct {
	MaxChannels int
	SpacingHz   float64
	Seed        int64
}

// DefaultScalingConfig sweeps one to four channels at the recto-piezo
// spacing across the transducer's usable band.
func DefaultScalingConfig() ScalingConfig {
	return ScalingConfig{MaxChannels: 4, SpacingHz: 1500, Seed: 21}
}

// scalingPositions hosts up to six nodes in Pool A. Like a field
// deployment, each spot was checked against its assigned channel:
// multipath puts deep fades at some (position, frequency) pairs, where
// a node simply cannot be sited.
var scalingPositions = []channel.Vec3{
	{X: 1.2, Y: 1.3, Z: 0.65},
	{X: 1.9, Y: 2.1, Z: 0.55},
	{X: 1.4, Y: 2.5, Z: 0.6},
	{X: 1.6, Y: 1.7, Z: 0.5},
	{X: 2.2, Y: 2.6, Z: 0.6},
	{X: 1.1, Y: 3.0, Z: 0.6},
}

// Scaling deploys fleets of growing size, polls each once, and reports
// the network totals. Every extra channel sits farther from the
// ceramic's geometric resonance, so per-node link quality degrades as
// the fleet grows — the transducer-bandwidth limit the paper points at.
func Scaling(cfg ScalingConfig) ([]ScalingRow, error) {
	if cfg.MaxChannels < 1 || cfg.MaxChannels > len(scalingPositions) {
		return nil, fmt.Errorf("experiments: channels must be in [1, %d]", len(scalingPositions))
	}
	if cfg.SpacingHz <= 0 {
		return nil, fmt.Errorf("experiments: spacing must be positive")
	}
	var rows []ScalingRow
	for k := 1; k <= cfg.MaxChannels; k++ {
		ncfg := core.DefaultFDMANetworkConfig()
		ncfg.Seed = cfg.Seed + int64(k)
		ncfg.SpacingHz = cfg.SpacingHz
		// Off-resonance channels pay the ceramic's bandpass twice (once
		// at the projector, once at the node); the paper compensated by
		// re-matching the projector per configuration (§5.1a) — here the
		// reader raises drive instead.
		ncfg.DriveV = 350
		// Grow the band symmetrically around the 15 kHz resonance (the
		// planner needs a non-degenerate band even for one channel).
		half := float64(k-1)/2*cfg.SpacingHz + cfg.SpacingHz/4
		ncfg.BandLow = 15000 - half
		ncfg.BandHigh = 15000 + half
		ncfg.Nodes = ncfg.Nodes[:0]
		for i := 0; i < k; i++ {
			ncfg.Nodes = append(ncfg.Nodes, core.FDMANode{
				Addr:       byte(0x40 + i),
				Pos:        scalingPositions[i],
				BitrateBps: 500,
				Env:        sensors.RoomTank(),
			})
		}
		net, err := core.NewFDMANetwork(ncfg, 2)
		if err != nil {
			return nil, fmt.Errorf("experiments: %d channels: %w", k, err)
		}
		row := ScalingRow{Channels: k, BandLowHz: ncfg.BandLow, BandHighHz: ncfg.BandHigh, WorstSNRdB: math.Inf(1)}
		if err := net.PowerUpAll(180); err != nil {
			// A channel too far off resonance cannot power its node —
			// the paper's scaling limit surfacing as a hard failure.
			row.AllNodesAlive = false
			row.WorstSNRdB = 0
			rows = append(rows, row)
			continue
		}
		row.AllNodesAlive = true
		replies := net.Round(func(addr byte) frame.Query {
			return frame.Query{Dest: addr, Command: frame.CmdPing}
		})
		for addr, df := range replies {
			if df == nil {
				row.AllNodesAlive = false
				continue
			}
			row.Replies++
			// Per-node SNR from the link's last decode is not retained;
			// approximate the worst link via a dedicated sensor read.
			_ = addr
		}
		// Worst-link SNR via one extra read per node.
		for _, spec := range ncfg.Nodes {
			res, err := net.Link(spec.Addr).RunQuery(frame.Query{Dest: spec.Addr, Command: frame.CmdPing})
			if err != nil || res.Decoded == nil || res.UplinkBER > 0 {
				row.AllNodesAlive = false
				continue
			}
			if s := res.Decoded.SNRdB(); s < row.WorstSNRdB {
				row.WorstSNRdB = s
			}
		}
		if math.IsInf(row.WorstSNRdB, 1) {
			row.WorstSNRdB = 0
		}
		s := net.Stats()
		row.GoodputBps = s.GoodputBps()
		row.AirtimeS = s.Airtime
		rows = append(rows, row)
	}
	return rows, nil
}

// RunScaling prints the sweep.
func RunScaling(w io.Writer) error {
	rows, err := Scaling(DefaultScalingConfig())
	if err != nil {
		return err
	}
	if err := header(w, "channels", "band_low_hz", "band_high_hz", "replies", "goodput_bps", "airtime_s", "worst_snr_db", "all_alive"); err != nil {
		return err
	}
	for _, r := range rows {
		if err := row(w, r.Channels, r.BandLowHz, r.BandHighHz, r.Replies, r.GoodputBps, r.AirtimeS, r.WorstSNRdB, r.AllNodesAlive); err != nil {
			return err
		}
	}
	return nil
}

// MultipleAccessBandwidth compares the total spectrum K concurrent users
// at equal bitrate need under FDMA, the scheme this study scales, and
// under CDMA (§3.3.1 footnote 4: "CDMA requires the same overall
// bandwidth as standard FDMA since it uses a spreading code at a higher
// rate than the transmitted signals"). FDMA needs K channels of the
// per-user bandwidth. CDMA needs one channel whose chip rate is the
// bitrate times the spreading factor, the smallest power-of-two code
// family (Walsh–Hadamard) with ≥ K codes, so the two match for
// power-of-two K. It returns (fdmaHz, cdmaHz).
func MultipleAccessBandwidth(users int, bitrate float64) (float64, float64, error) {
	if users < 1 || bitrate <= 0 {
		return 0, 0, fmt.Errorf("experiments: need ≥1 user and positive bitrate")
	}
	fdma := float64(users) * phy.OccupiedBandwidth(bitrate)
	factor := 1
	for factor < users {
		factor <<= 1
	}
	cdma := phy.OccupiedBandwidth(bitrate * float64(factor))
	return fdma, cdma, nil
}
