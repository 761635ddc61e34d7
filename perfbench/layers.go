package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"pab/internal/channel"
	"pab/internal/core"
	"pab/internal/dsp"
	"pab/internal/frame"
	"pab/internal/phy"
	"pab/internal/piezo"
	"pab/internal/scenario"
)

// replaySpecs is how many sweep specs the traced run replays layer by
// layer: the first batch's fresh specs, which cover both pools, every
// bitrate and both commands.
const replaySpecs = sweepFresh

// minCoverage is the share of RunQuery time the replayed layer calls
// must account for; below it the unstaged remainder is a hot spot the
// per-layer table cannot see.
const minCoverage = 0.90

// replayLayers calls scenario.Run directly on sampled sweep specs, then
// replays one exchange per spec through the simulator's layers.
func replayLayers(batches []sweepBatch, tr *tracer, res *result) error {
	var specs []scenario.Spec
	for i, sp := range batches[0].Specs {
		if !batches[0].Repeat[i] && len(specs) < replaySpecs {
			specs = append(specs, sp)
		}
	}
	var runMS []float64
	for i, sp := range specs {
		s := tr.start("scenario.Run", int64(2_000_000+i), nil)
		if _, err := scenario.Run(context.Background(), sp); err != nil {
			return fmt.Errorf("scenario.Run: %w", err)
		}
		runMS = append(runMS, ms(s.end()))
	}
	res.layer("scenario.run_ms_p50", newDist(runMS).p50())

	var acc exchangeReplay
	for i, sp := range specs {
		if err := acc.replay(sp, int64(3_000_000+i), tr); err != nil {
			return err
		}
	}
	share := func(d time.Duration) float64 { return float64(d) / float64(acc.exchange) }
	staged := acc.projector + acc.apply + acc.downlink + acc.analytic + acc.envelope + acc.receiver
	unstaged := 1 - share(staged)
	res.layer("core.exchange_ms_p50", newDist(acc.exchangeMS).p50())
	res.layer("core.exchange_unstaged_share", unstaged)
	res.layer("projector.query_share", share(acc.projector))
	res.layer("channel.apply_share", share(acc.apply))
	res.layer("channel.response_ms", newDist(acc.responseMS).p50())
	res.layer("node.downlink_share", share(acc.downlink))
	res.layer("dsp.analytic_share", share(acc.analytic))
	res.layer("dsp.envelope_share", share(acc.envelope))
	res.layer("core.receiver_share", share(acc.receiver))
	res.add("core.exchange_coverage", share(staged), "ratio",
		fmt.Sprintf("replayed layer calls over %d RunQuery calls, must be ≥ %.2f", len(specs), minCoverage))
	if share(staged) < minCoverage {
		res.note("coverage shortfall: core.exchange_unstaged_share = %.3f exceeds %.2f; largest staged layers: %s",
			unstaged, 1-minCoverage, acc.largest())
	}
	return nil
}

// exchangeReplay accumulates RunQuery time and the time of each layer
// call replayed on the same exchange's inputs.
type exchangeReplay struct {
	exchange, projector, apply, downlink, analytic, envelope, receiver time.Duration
	exchangeMS, responseMS                                             []float64
}

func (a *exchangeReplay) largest() string {
	parts := []struct {
		name string
		d    time.Duration
	}{
		{"core.receiver", a.receiver}, {"channel.apply", a.apply}, {"dsp.analytic", a.analytic},
		{"projector.query", a.projector}, {"dsp.envelope", a.envelope}, {"node.downlink", a.downlink},
	}
	sort.Slice(parts, func(i, j int) bool { return parts[i].d > parts[j].d })
	var b strings.Builder
	for _, p := range parts {
		fmt.Fprintf(&b, "%s=%.3f ", p.name, float64(p.d)/float64(a.exchange))
	}
	return strings.TrimSpace(b.String())
}

// replay runs one RunQuery on the spec's link, then feeds that
// exchange's inputs through each layer call RunQuery makes, timing
// each under its own span. The arguments mirror core.Link.RunQuery.
func (a *exchangeReplay) replay(sp scenario.Spec, req int64, tr *tracer) error {
	parent := tr.start("exchange.replay", req, nil)
	defer parent.end()
	link, err := buildLink(sp)
	if err != nil {
		return err
	}
	cfg := link.Config()
	q, err := sp.MAC.Query(sp.Nodes[0].Addr)
	if err != nil {
		return err
	}
	timed := func(name string, acc *time.Duration, f func() error) error {
		s := tr.start(name, req, parent)
		t0 := time.Now()
		err := f()
		d := time.Since(t0)
		s.end()
		*acc += d
		return err
	}

	var res *core.ExchangeResult
	var runQuery time.Duration
	if err := timed("core.Link.RunQuery", &runQuery, func() (err error) {
		res, err = link.RunQuery(q)
		return err
	}); err != nil {
		return err
	}
	a.exchange += runQuery
	a.exchangeMS = append(a.exchangeMS, ms(runQuery))

	// The three legs' impulse responses are built in NewLink, outside
	// RunQuery: reported in ms, not as a share.
	opts := channel.Options{MaxOrder: cfg.ChannelOrder, MinGain: 0.02, CarrierHz: cfg.CarrierHz}
	var irs [3]*channel.ImpulseResponse
	var respTime time.Duration
	legs := [3][2]channel.Vec3{
		{cfg.ProjectorPos, cfg.NodePos}, {cfg.ProjectorPos, cfg.HydrophonePos}, {cfg.NodePos, cfg.HydrophonePos},
	}
	if err := timed("channel.Tank.Response", &respTime, func() error {
		for i, l := range legs {
			ir, err := cfg.Tank.Response(l[0], l[1], cfg.SampleRate, opts)
			if err != nil {
				return err
			}
			irs[i] = ir
		}
		return nil
	}); err != nil {
		return err
	}
	a.responseMS = append(a.responseMS, ms(respTime))

	bitrate := sp.Nodes[0].BitrateBps
	uplinkBits := len(phy.PreambleBits) + frame.DataFrameBitLength(cfg.MaxReplyPayload)
	tail := float64(uplinkBits)/bitrate*1.3 + 2*0.03
	proj, err := core.NewPaperProjector(cfg.SampleRate)
	if err != nil {
		return err
	}
	var x []float64
	if err := timed("projector.Projector.Query", &a.projector, func() (err error) {
		x, err = proj.Query(q, cfg.DriveV, cfg.CarrierHz, cfg.PWMUnit, tail)
		return err
	}); err != nil {
		return err
	}
	queryEndX := len(x) - int(tail*cfg.SampleRate)

	var pNode []float64
	_ = timed("channel.ImpulseResponse.Apply", &a.apply, func() error {
		pNode = irs[0].Apply(x)
		irs[1].Apply(x)
		return nil
	})
	var env []float64
	if err := timed("dsp.AmplitudeEnvelope", &a.envelope, func() (err error) {
		unitRate := cfg.SampleRate / float64(cfg.PWMUnit)
		envCut := math.Min(2*unitRate, cfg.SampleRate/4)
		env, err = dsp.AmplitudeEnvelope(pNode[:min(queryEndX+int(0.01*cfg.SampleRate), len(pNode))], cfg.SampleRate, envCut, 4)
		return err
	}); err != nil {
		return err
	}
	_ = timed("node.Node.DecodeDownlink", &a.downlink, func() error {
		_, _ = link.Node().DecodeDownlink(env, cfg.PWMUnit) // only its time is wanted; RunQuery judged the outcome
		return nil
	})
	var aNode []complex128
	_ = timed("dsp.AnalyticSignal", &a.analytic, func() error {
		aNode = dsp.AnalyticSignal(pNode)
		return nil
	})
	absorb := link.Node().FrontEnd().ReflectionCoeff(piezo.Absorptive, cfg.CarrierHz)
	reflected := make([]float64, len(aNode))
	for i, v := range aNode {
		reflected[i] = real(absorb * v)
	}
	_ = timed("channel.ImpulseResponse.Apply", &a.apply, func() error {
		irs[2].Apply(reflected)
		return nil
	})
	if res.UplinkBits != nil {
		recv := link.Receiver()
		_ = timed("core.Receiver.DecodeUplink", &a.receiver, func() error {
			_, err := recv.DecodeUplink(res.Recording, cfg.CarrierHz, bitrate, res.DecodeGate)
			if err != nil {
				// RunQuery falls back to the SNR measurement when the
				// CRC fails; so does the replay.
				_, _, _ = recv.MeasureUplinkSNR(res.Recording, cfg.CarrierHz, bitrate, res.UplinkBits, res.DecodeGate)
			}
			return nil
		})
	}
	return nil
}
