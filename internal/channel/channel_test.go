package channel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pab/internal/acoustics"
	"pab/internal/dsp"
)

func TestVec3(t *testing.T) {
	a, b := Vec3{1, 2, 3}, Vec3{1, 2, 0}
	if d := a.Distance(b); d != 3 {
		t.Errorf("distance %g, want 3", d)
	}
	if n := (Vec3{3, 4, 0}).Norm(); n != 5 {
		t.Errorf("norm %g, want 5", n)
	}
}

func TestTankValidation(t *testing.T) {
	if err := PoolA().Validate(); err != nil {
		t.Errorf("pool A: %v", err)
	}
	if err := PoolB().Validate(); err != nil {
		t.Errorf("pool B: %v", err)
	}
	bad := PoolA()
	bad.LX = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero dimension should fail")
	}
	bad = PoolA()
	bad.WallReflect = 1.5
	if err := bad.Validate(); err == nil {
		t.Error("reflection > 1 should fail")
	}
}

func TestContains(t *testing.T) {
	tank := PoolA()
	if !tank.Contains(Vec3{1, 1, 0.5}) {
		t.Error("interior point should be contained")
	}
	if tank.Contains(Vec3{-0.1, 1, 0.5}) || tank.Contains(Vec3{1, 5, 0.5}) {
		t.Error("exterior points should not be contained")
	}
}

func TestDirectPathDelayAndGain(t *testing.T) {
	tank := PoolA()
	src := Vec3{0.5, 0.5, 0.65}
	dst := Vec3{2.5, 0.5, 0.65}
	fs := 96000.0
	ir, err := tank.Response(src, dst, fs, Options{MaxOrder: 0, CarrierHz: 15000})
	if err != nil {
		t.Fatal(err)
	}
	if len(ir.Taps) != 1 {
		t.Fatalf("order 0 should give exactly the direct path, got %d taps", len(ir.Taps))
	}
	c := tank.Water.SoundSpeed()
	wantDelay := 2.0 / c
	if math.Abs(ir.Taps[0].DelaySeconds-wantDelay) > 1e-9 {
		t.Errorf("delay %g, want %g", ir.Taps[0].DelaySeconds, wantDelay)
	}
	// 1/r at 2 m ⇒ gain ≈ 0.5 (absorption negligible).
	if math.Abs(ir.Taps[0].Gain-0.5) > 0.001 {
		t.Errorf("gain %g, want ~0.5", ir.Taps[0].Gain)
	}
}

func TestMultipathHasMoreTaps(t *testing.T) {
	tank := PoolA()
	src := Vec3{0.5, 0.5, 0.65}
	dst := Vec3{2.5, 3.5, 0.65}
	fs := 96000.0
	ir0, err := tank.Response(src, dst, fs, Options{MaxOrder: 0, CarrierHz: 15000})
	if err != nil {
		t.Fatal(err)
	}
	ir3, err := tank.Response(src, dst, fs, DefaultOptions(15000))
	if err != nil {
		t.Fatal(err)
	}
	if len(ir3.Taps) <= len(ir0.Taps) {
		t.Errorf("order 3 (%d taps) should exceed order 0 (%d)", len(ir3.Taps), len(ir0.Taps))
	}
	// Taps are delay-sorted and the first is the direct path.
	for i := 1; i < len(ir3.Taps); i++ {
		if ir3.Taps[i].DelaySeconds < ir3.Taps[i-1].DelaySeconds {
			t.Fatal("taps not sorted by delay")
		}
	}
	if math.Abs(ir3.Taps[0].Gain-ir0.Taps[0].Gain) > 1e-12 {
		t.Error("first tap should be the direct path")
	}
	// Reflected taps are weaker than the direct path.
	for _, tap := range ir3.Taps[1:] {
		if math.Abs(tap.Gain) > math.Abs(ir3.Taps[0].Gain) {
			t.Errorf("reflection stronger than direct: %g vs %g", tap.Gain, ir3.Taps[0].Gain)
		}
	}
}

func TestSurfaceReflectionInverted(t *testing.T) {
	// With only the surface reflective, the sole order-1 echo should be
	// negative (pressure release).
	tank := PoolA()
	tank.WallReflect = 0
	tank.FloorReflect = 0
	src := Vec3{1, 1, 0.65}
	dst := Vec3{2, 1, 0.65}
	ir, err := tank.Response(src, dst, 96000, Options{MaxOrder: 1, MinGain: 0.001, CarrierHz: 15000})
	if err != nil {
		t.Fatal(err)
	}
	var negative int
	for _, tap := range ir.Taps[1:] {
		if tap.Gain < 0 {
			negative++
		}
	}
	if negative == 0 {
		t.Error("expected at least one inverted surface echo")
	}
}

func TestResponseErrors(t *testing.T) {
	tank := PoolA()
	in := Vec3{1, 1, 0.5}
	out := Vec3{99, 1, 0.5}
	if _, err := tank.Response(in, out, 96000, DefaultOptions(15000)); err == nil {
		t.Error("outside receiver should error")
	}
	if _, err := tank.Response(out, in, 96000, DefaultOptions(15000)); err == nil {
		t.Error("outside source should error")
	}
	if _, err := tank.Response(in, in, 0, DefaultOptions(15000)); err == nil {
		t.Error("zero sample rate should error")
	}
	if _, err := tank.Response(in, in, 96000, Options{MaxOrder: -1}); err == nil {
		t.Error("negative order should error")
	}
}

func TestApplyDelaysAndScales(t *testing.T) {
	ir := &ImpulseResponse{
		Taps:       []Tap{{DelaySeconds: 10.0 / 96000, Gain: 0.5}},
		SampleRate: 96000,
	}
	x := []float64{1, 0, 0, 0}
	y := ir.Apply(x)
	if math.Abs(y[10]-0.5) > 1e-12 {
		t.Errorf("y[10] = %g, want 0.5", y[10])
	}
	for i, v := range y {
		if i != 10 && math.Abs(v) > 1e-12 {
			t.Errorf("y[%d] = %g, want 0", i, v)
		}
	}
}

func TestApplyFractionalDelay(t *testing.T) {
	ir := &ImpulseResponse{
		Taps:       []Tap{{DelaySeconds: 10.5 / 96000, Gain: 1}},
		SampleRate: 96000,
	}
	y := ir.Apply([]float64{1})
	if math.Abs(y[10]-0.5) > 1e-9 || math.Abs(y[11]-0.5) > 1e-9 {
		t.Errorf("fractional delay should split: y[10]=%g y[11]=%g", y[10], y[11])
	}
}

// perTapApply is Apply as one sweep of the whole input per tap — the
// reference for the blocked loop's order of additions.
func perTapApply(ir *ImpulseResponse, x []float64) []float64 {
	spread := int(math.Ceil(ir.MaxDelay()*ir.SampleRate)) + 2
	out := make([]float64, len(x)+spread)
	for _, tap := range ir.Taps {
		d := tap.DelaySeconds * ir.SampleRate
		i0 := int(math.Floor(d))
		frac := d - float64(i0)
		g0 := tap.Gain * (1 - frac)
		g1 := tap.Gain * frac
		for i, v := range x {
			out[i+i0] += g0 * v
			out[i+i0+1] += g1 * v
		}
	}
	return out
}

// applyTestResponses returns a hand-built response with a tap at i0 = 0
// and the link responses of both pools.
func applyTestResponses(tb testing.TB) map[string]*ImpulseResponse {
	tb.Helper()
	irs := map[string]*ImpulseResponse{
		"i0=0": {SampleRate: 96000, Taps: []Tap{
			{DelaySeconds: 0, Gain: 0.7},
			{DelaySeconds: 0.25 / 96000, Gain: -0.3},
			{DelaySeconds: 3.5 / 96000, Gain: 0.2},
			{DelaySeconds: 1600.75 / 96000, Gain: 0.1},
		}},
	}
	for name, tank := range map[string]Tank{"PoolA": PoolA(), "PoolB": PoolB()} {
		ir, err := tank.Response(Vec3{0.5, 0.5, 0.65}, Vec3{1.2, 1.3, 0.65}, 96000, Options{MaxOrder: 2, MinGain: 0.02, CarrierHz: 15000})
		if err != nil {
			tb.Fatal(err)
		}
		irs[name] = ir
	}
	return irs
}

func TestApplyMatchesPerTapSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for name, ir := range applyTestResponses(t) {
		// Lengths around the edges and across block boundaries.
		for _, n := range []int{1, 2, 3, applyBlock - 1, applyBlock + 1, 3*applyBlock + 17, 107313} {
			x := make([]float64, n)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			got, want := ir.Apply(x), perTapApply(ir, x)
			if len(got) != len(want) {
				t.Fatalf("%s n=%d: length %d, want %d", name, n, len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s n=%d: out[%d] = %v, want %v bit for bit", name, n, i, got[i], want[i])
				}
			}
		}
	}
}

// BenchmarkApply renders a link-length (107,313-sample) waveform through
// each pool's projector-to-node response.
func BenchmarkApply(b *testing.B) {
	x := dsp.Sine(1, 15000, 96000, 0, 107313)
	for _, name := range []string{"PoolA", "PoolB"} {
		ir := applyTestResponses(b)[name]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ir.Apply(x)
			}
		})
	}
}

func TestApplyLinearity(t *testing.T) {
	tank := PoolA()
	ir, err := tank.Response(Vec3{0.5, 1, 0.6}, Vec3{2, 3, 0.6}, 96000, DefaultOptions(15000))
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := make([]float64, 64)
		b := make([]float64, 64)
		sum := make([]float64, 64)
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
			sum[i] = a[i] + b[i]
		}
		ya, yb, ys := ir.Apply(a), ir.Apply(b), ir.Apply(sum)
		for i := range ys {
			if math.Abs(ys[i]-(ya[i]+yb[i])) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestChannelGainVariesWithLocation(t *testing.T) {
	// Multipath fading: coherent gain differs across placements (the
	// spread behind Fig 10's per-location SINR variation).
	tank := PoolA()
	fs := 96000.0
	base := Vec3{0.3, 0.3, 0.65}
	var gains []float64
	for _, p := range []Vec3{{1, 1, 0.6}, {1.7, 2.3, 0.5}, {2.4, 3.1, 0.8}, {0.9, 3.3, 0.4}} {
		ir, err := tank.Response(base, p, fs, DefaultOptions(15000))
		if err != nil {
			t.Fatal(err)
		}
		g := ir.Gain(15000)
		gains = append(gains, math.Hypot(real(g), imag(g)))
	}
	allSame := true
	for _, g := range gains[1:] {
		if math.Abs(g-gains[0]) > 0.01*gains[0] {
			allSame = false
		}
	}
	if allSame {
		t.Error("channel gains should vary with location")
	}
}

func TestPoolBCarriesFartherThanPoolA(t *testing.T) {
	// The corridor's wall images reinforce the field: at the same range,
	// total received energy in Pool B exceeds open Pool A (Fig 9's
	// observation). Compare summed tap energy at 4 m.
	fs := 96000.0
	a, err := PoolA().Response(Vec3{0.3, 0.3, 0.65}, Vec3{0.3, 3.9, 0.65}, fs, Options{MaxOrder: 4, MinGain: 0.005, CarrierHz: 15000})
	if err != nil {
		t.Fatal(err)
	}
	b, err := PoolB().Response(Vec3{0.6, 0.3, 0.5}, Vec3{0.6, 3.9, 0.5}, fs, Options{MaxOrder: 4, MinGain: 0.005, CarrierHz: 15000})
	if err != nil {
		t.Fatal(err)
	}
	energy := func(ir *ImpulseResponse) float64 {
		e := 0.0
		for _, tap := range ir.Taps {
			e += tap.Gain * tap.Gain
		}
		return e
	}
	if energy(b) <= energy(a) {
		t.Errorf("pool B energy %g should exceed pool A %g at 3.6 m", energy(b), energy(a))
	}
}

func TestAddWhiteNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	x := make([]float64, 100000)
	AddWhiteNoise(x, 0.5, rng)
	if r := dsp.RMS(x); math.Abs(r-0.5) > 0.01 {
		t.Errorf("noise RMS %g, want 0.5", r)
	}
	y := make([]float64, 10)
	AddWhiteNoise(y, 0, rng)
	for _, v := range y {
		if v != 0 {
			t.Error("zero RMS should add nothing")
		}
	}
}

func TestNoiseForSNR(t *testing.T) {
	// Signal RMS 1.0, want 20 dB SNR ⇒ noise RMS 0.1.
	if n := NoiseForSNR(1.0, 20); math.Abs(n-0.1) > 1e-12 {
		t.Errorf("noise RMS %g, want 0.1", n)
	}
	// Verify end to end with measured RMS.
	rng := rand.New(rand.NewSource(1))
	sig := dsp.Sine(math.Sqrt2, 15000, 96000, 0, 96000) // RMS 1
	noise := NoiseForSNR(1.0, 10)
	noisy := make([]float64, len(sig))
	copy(noisy, sig)
	AddWhiteNoise(noisy, noise, rng)
	var nPow float64
	for i := range sig {
		d := noisy[i] - sig[i]
		nPow += d * d
	}
	snr := 10 * math.Log10(1.0/(nPow/float64(len(sig))))
	if math.Abs(snr-10) > 0.3 {
		t.Errorf("achieved SNR %g dB, want 10", snr)
	}
}

func TestAmbientNoiseRMS(t *testing.T) {
	rms, err := AmbientNoiseRMS(acoustics.CoastalNoise(), 14e3, 16e3)
	if err != nil {
		t.Fatal(err)
	}
	if rms <= 0 {
		t.Error("ambient noise RMS should be positive")
	}
	quietRMS, err := AmbientNoiseRMS(acoustics.QuietTank(), 14e3, 16e3)
	if err != nil {
		t.Fatal(err)
	}
	if quietRMS >= rms {
		t.Error("quiet tank should be quieter than coastal water")
	}
	if _, err := AmbientNoiseRMS(acoustics.QuietTank(), 16e3, 14e3); err == nil {
		t.Error("inverted band should error")
	}
}

func TestToneThroughChannelKeepsFrequency(t *testing.T) {
	tank := PoolA()
	fs := 96000.0
	ir, err := tank.Response(Vec3{0.5, 0.5, 0.6}, Vec3{2.5, 3.5, 0.6}, fs, DefaultOptions(15000))
	if err != nil {
		t.Fatal(err)
	}
	x := dsp.Sine(1, 15000, fs, 0, 9600)
	y := ir.Apply(x)
	peaks := dsp.FindPeaks(y[500:len(y)-500], fs, 1, 500, 0)
	if len(peaks) != 1 || math.Abs(peaks[0].Frequency-15000) > 50 {
		t.Errorf("channel distorted the tone: %+v", peaks)
	}
}

func TestSurfaceBounceCounting(t *testing.T) {
	tank := PoolA()
	ir, err := tank.Response(Vec3{1, 1, 0.65}, Vec3{2, 1.5, 0.65}, 96000,
		Options{MaxOrder: 2, MinGain: 0.001, CarrierHz: 15000})
	if err != nil {
		t.Fatal(err)
	}
	if ir.Taps[0].SurfaceBounces != 0 {
		t.Error("direct path should have zero surface bounces")
	}
	var surface int
	for _, tap := range ir.Taps {
		if tap.SurfaceBounces > 0 {
			surface++
		}
	}
	if surface == 0 {
		t.Error("order-2 response should contain surface-reflected paths")
	}
}

func TestApplyTimeVaryingStillWaterMatchesApply(t *testing.T) {
	tank := PoolA()
	ir, err := tank.Response(Vec3{1, 1, 0.65}, Vec3{2, 1.5, 0.65}, 96000, DefaultOptions(15000))
	if err != nil {
		t.Fatal(err)
	}
	x := dsp.Sine(1, 15000, 96000, 0, 2000)
	static := ir.Apply(x)
	calm := ir.ApplyTimeVarying(x, SurfaceMotion{}, 1482) // zero motion → Apply
	n := len(static)
	if len(calm) < n {
		n = len(calm)
	}
	for i := 0; i < n; i++ {
		if math.Abs(static[i]-calm[i]) > 1e-9 {
			t.Fatalf("calm water mismatch at %d", i)
		}
	}
}

func TestApplyTimeVaryingFadesTheCarrier(t *testing.T) {
	// Surface waves swing the surface-path phase, so the coherent sum
	// with the direct path fades in and out over the wave period.
	tank := PoolA()
	// Strengthen the surface path so the fading is unmistakable.
	tank.WallReflect = 0
	tank.FloorReflect = 0
	tank.SurfaceReflect = -0.95
	fs := 96000.0
	ir, err := tank.Response(Vec3{1, 1, 0.65}, Vec3{2, 1.5, 0.65}, fs,
		Options{MaxOrder: 1, MinGain: 0.001, CarrierHz: 15000})
	if err != nil {
		t.Fatal(err)
	}
	n := int(2 * fs) // two seconds, two wave periods
	x := dsp.Sine(1, 15000, fs, 0, n)
	y := ir.ApplyTimeVarying(x, SurfaceMotion{AmplitudeM: 0.03, PeriodS: 1}, tank.Water.SoundSpeed())
	// Envelope over 50 ms blocks must vary far more than in still water.
	block := int(0.05 * fs)
	var levels []float64
	for s := 0; s+block < n; s += block {
		levels = append(levels, dsp.RMS(y[s:s+block]))
	}
	minL, maxL := levels[0], levels[0]
	for _, l := range levels {
		minL = math.Min(minL, l)
		maxL = math.Max(maxL, l)
	}
	if maxL/minL < 1.2 {
		t.Errorf("surface motion should fade the carrier: levels %g–%g", minL, maxL)
	}
}
