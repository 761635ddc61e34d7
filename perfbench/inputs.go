package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"pab/internal/channel"
	"pab/internal/core"
	"pab/internal/frame"
	"pab/internal/node"
	"pab/internal/phy"
	"pab/internal/scenario"
	"pab/internal/sensors"
)

// Input space shared by the corpus and the sweep specs. Every workload
// input is drawn from these with a generator seeded by --seed.
var (
	pools = []string{scenario.TankPoolA, scenario.TankPoolB}
	// requestedBitrates are quantised to the node clock divider, the
	// only rates a paper node can emit (496.5, 993, 1489.5, 2048 bit/s).
	requestedBitrates = []float64{500, 1000, 1500, 2000}
	// noiseLevelsPa: a quiet tank, a busy one, and one that puts a share
	// of links near the decode threshold.
	noiseLevelsPa = []float64{0.5, 60, nearThresholdPa}
)

const (
	nearThresholdPa = 200
	// drownedPa buries a 500 bit/s uplink far below the decode
	// threshold: the reply cannot be decoded wherever the node sits.
	drownedPa = 3000
)

// nodeBox is the region a node is drawn from in each pool: the part of
// the tank near the reader where a paper node can harvest enough to
// boot. Draws that still fail to power up are re-drawn.
var nodeBox = map[string][2][3]float64{
	scenario.TankPoolA: {{0.9, 0.9, 0.3}, {1.6, 1.8, 1.0}},
	scenario.TankPoolB: {{0.2, 1.0, 0.3}, {1.0, 2.0, 0.8}},
}

const (
	sampleRate = 96000.0
	carrierHz  = 15000.0
	// powerUpBudgetS is the scenario default power-up budget.
	powerUpBudgetS = 60
	// maxDraws bounds position re-draws for one input.
	maxDraws = 200
)

func gridBitrate(requested float64) float64 {
	q, err := node.PaperMCU().AchievableBitrate(requested)
	if err != nil {
		panic(err) // requestedBitrates are positive constants
	}
	return q
}

func drawPos(rng *rand.Rand, pool string) [3]float64 {
	b := nodeBox[pool]
	var p [3]float64
	for i := range p {
		p[i] = b[0][i] + rng.Float64()*(b[1][i]-b[0][i])
	}
	return p
}

// buildLink builds one node's link exactly as scenario.Run does for a
// single-node KindLink spec, and powers the node up.
func buildLink(sp scenario.Spec) (*core.Link, error) {
	sp = sp.Normalize()
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	tank, err := sp.Tank.Build()
	if err != nil {
		return nil, err
	}
	ns := sp.Nodes[0]
	n, err := core.NewPaperNode(ns.Addr, ns.BitrateBps, sensors.RoomTank())
	if err != nil {
		return nil, err
	}
	proj, err := core.NewPaperProjector(sp.PHY.SampleRateHz)
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultLinkConfig()
	cfg.Tank = tank
	cfg.SampleRate = sp.PHY.SampleRateHz
	cfg.CarrierHz = sp.PHY.CarrierHz
	cfg.DriveV = sp.PHY.DriveV
	cfg.PWMUnit = sp.PHY.PWMUnitSamples
	cfg.NoiseRMS = sp.PHY.NoiseRMSPa
	cfg.ChannelOrder = sp.PHY.ChannelOrder
	cfg.MaxReplyPayload = sp.PHY.MaxReplyPayload
	// scenario's reader placement for tanks that fit the paper's spots
	// (both pools do).
	cfg.ProjectorPos = channel.Vec3{X: 0.5, Y: 0.5, Z: 0.65}
	cfg.HydrophonePos = channel.Vec3{X: 0.7, Y: 0.6, Z: 0.65}
	cfg.NodePos = channel.Vec3{X: ns.PosM[0], Y: ns.PosM[1], Z: ns.PosM[2]}
	cfg.Seed = sp.Seed
	link, err := core.NewLink(cfg, n, proj)
	if err != nil {
		return nil, err
	}
	if err := link.EnsurePowered(sp.MAC.PowerUpS); err != nil {
		return nil, err
	}
	return link, nil
}

// linkSpec is a single-node KindLink spec.
func linkSpec(seed int64, pool string, pos [3]float64, bitrate, noise float64, polls int, readSensor bool) scenario.Spec {
	sp := scenario.Spec{
		Kind:  scenario.KindLink,
		Seed:  seed,
		Tank:  scenario.TankSpec{Preset: pool},
		Nodes: []scenario.NodeSpec{{Addr: 1, PosM: pos, BitrateBps: bitrate}},
		PHY:   scenario.PHYSpec{NoiseRMSPa: noise},
		MAC:   scenario.MACSpec{Polls: polls, Command: "ping", PowerUpS: powerUpBudgetS},
	}
	if readSensor {
		sp.MAC.Command = "read_sensor"
	}
	return sp.Normalize()
}

// recording is one corpus entry: a 96 kHz hydrophone recording of one
// exchange, with what the node sent and what the exchange's own
// in-line decode concluded.
type recording struct {
	Bitrate  float64
	NoisePa  float64
	Pressure []float64
	Gate     int
	// Sent is the payload-section bits the node backscattered, and
	// Payload the data frame payload they carry.
	Sent    []phy.Bit
	Payload []byte
	// RefOK and RefBits are RunQuery's own decode of this recording.
	RefOK   bool
	RefBits []phy.Bit
}

// corpusStrata is pools × bitrates × noise levels; the corpus holds
// corpusReps draws of each, ordered so consecutive entries cycle
// through the strata and any prefix of the corpus keeps the mix.
const corpusReps = 4

func corpusSize() int { return len(pools) * len(requestedBitrates) * len(noiseLevelsPa) * corpusReps }

// corpusEntry fixes entry i's stratum and seeds its own generator, so
// entries can be synthesised in parallel and still depend on the seed
// alone.
func corpusEntry(seed int64, i int) (pool string, bitrate, noise float64, readSensor bool, rng *rand.Rand) {
	nS := len(pools) * len(requestedBitrates) * len(noiseLevelsPa)
	s := i % nS
	pool = pools[s%len(pools)]
	bitrate = gridBitrate(requestedBitrates[(s/len(pools))%len(requestedBitrates)])
	noise = noiseLevelsPa[s/(len(pools)*len(requestedBitrates))]
	readSensor = (i/nS)%2 == 1
	rng = rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
	return
}

// synthRecording synthesises corpus entry i.
func synthRecording(seed int64, i int) (*recording, error) {
	pool, bitrate, noise, readSensor, rng := corpusEntry(seed, i)
	r, err := synthExchange(rng, pool, bitrate, noise, readSensor)
	if err != nil {
		return nil, fmt.Errorf("corpus entry %d: %w", i, err)
	}
	return r, nil
}

// synthExchange draws node positions until the node powers up and
// answers the query, then keeps that exchange.
func synthExchange(rng *rand.Rand, pool string, bitrate, noise float64, readSensor bool) (*recording, error) {
	for draw := 0; draw < maxDraws; draw++ {
		sp := linkSpec(rng.Int63n(1<<40)+1, pool, drawPos(rng, pool), bitrate, noise, 1, readSensor)
		link, err := buildLink(sp)
		if err != nil {
			continue // node did not power up here
		}
		q, err := sp.MAC.Query(1)
		if err != nil {
			return nil, err
		}
		res, err := link.RunQuery(q)
		if err != nil {
			return nil, err
		}
		if res.UplinkBits == nil {
			continue // node missed the downlink query: no uplink to decode
		}
		sent := res.UplinkBits[len(phy.PreambleBits):]
		raw, err := frame.FromBits(sent)
		if err != nil {
			return nil, err
		}
		df, err := frame.UnmarshalDataFrame(raw)
		if err != nil {
			return nil, err
		}
		r := &recording{
			Bitrate: bitrate, NoisePa: noise,
			Pressure: res.Recording, Gate: res.DecodeGate,
			Sent: sent, Payload: df.Payload,
		}
		if res.Decoded != nil && res.Decoded.Bits != nil {
			r.RefOK, r.RefBits = true, res.Decoded.Bits
		}
		return r, nil
	}
	return nil, fmt.Errorf("no powered, answering node position in %d draws", maxDraws)
}

// synthCorpus synthesises the seed's corpus on nproc workers.
func synthCorpus(seed int64) ([]*recording, error) {
	n := corpusSize()
	out := make([]*recording, n)
	errs := make([]error, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				out[i], errs[i] = synthRecording(seed, i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func sameBits(a, b []phy.Bit) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
