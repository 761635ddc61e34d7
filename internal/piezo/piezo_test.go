package piezo

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"pab/internal/circuit"
)

func mustNew(t *testing.T, d Design) *Transducer {
	t.Helper()
	tr, err := New(d)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestPaperCylinderResonance(t *testing.T) {
	tr := mustNew(t, PaperCylinder())
	// 17 kHz in air mass-loads to ≈15 kHz in water — the frequency the
	// paper's first recto-piezo is matched at.
	if f0 := tr.ResonanceHz(); math.Abs(f0-15000) > 100 {
		t.Errorf("water resonance %g Hz, want ~15000", f0)
	}
	// Q = f0/BW.
	if bw := tr.BandwidthHz(); math.Abs(bw-tr.ResonanceHz()/3) > 1 {
		t.Errorf("bandwidth %g", bw)
	}
}

func TestImpedanceMinimumNearResonance(t *testing.T) {
	tr := mustNew(t, PaperCylinder())
	f0 := tr.ResonanceHz()
	zRes := cmplx.Abs(tr.Impedance(f0))
	for _, f := range []float64{f0 * 0.8, f0 * 1.25} {
		if z := cmplx.Abs(tr.Impedance(f)); z <= zRes {
			t.Errorf("|Z(%g)| = %g should exceed |Z(f0)| = %g", f, z, zRes)
		}
	}
}

func TestImpedancePassive(t *testing.T) {
	tr := mustNew(t, PaperCylinder())
	f := func(raw uint16) bool {
		freq := 1000 + float64(raw%40000)
		return real(tr.Impedance(freq)) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGeometricResponseShape(t *testing.T) {
	tr := mustNew(t, PaperCylinder())
	f0 := tr.ResonanceHz()
	if b := tr.GeometricResponse(f0); math.Abs(b-1) > 1e-9 {
		t.Errorf("B(f0) = %g, want 1", b)
	}
	// Half-power at f0 ± BW/2 (to first order).
	bw := tr.BandwidthHz()
	if b := tr.GeometricResponse(f0 + bw/2); math.Abs(b-1/math.Sqrt2) > 0.03 {
		t.Errorf("B(f0+BW/2) = %g, want ~0.707", b)
	}
	// Monotone decay away from resonance on both sides.
	prev := 1.0
	for _, f := range []float64{f0 * 1.05, f0 * 1.15, f0 * 1.3, f0 * 1.6} {
		b := tr.GeometricResponse(f)
		if b >= prev {
			t.Errorf("response should fall above resonance: B(%g)=%g ≥ %g", f, b, prev)
		}
		prev = b
	}
	if tr.GeometricResponse(0) != 0 {
		t.Error("B(0) should be 0")
	}
}

func TestTransmitPressure(t *testing.T) {
	tr := mustNew(t, PaperCylinder())
	f0 := tr.ResonanceHz()
	p := tr.TransmitPressure(10, f0)
	if math.Abs(p-30) > 1e-9 { // 3 Pa·m/V × 10 V
		t.Errorf("transmit pressure %g, want 30", p)
	}
	// Driving off resonance radiates less.
	if off := tr.TransmitPressure(10, f0*1.6); off >= p/2 {
		t.Errorf("off-resonance pressure %g should be well below %g", off, p)
	}
	if near := tr.TransmitPressure(10, f0*1.1); near >= p {
		t.Errorf("near-resonance pressure %g should not exceed peak %g", near, p)
	}
}

func TestReceiveReciprocity(t *testing.T) {
	tr := mustNew(t, PaperCylinder())
	f0 := tr.ResonanceHz()
	v := tr.OpenCircuitVoltage(100, f0)
	if math.Abs(v-100*tr.Design().ReceiveResponse) > 1e-12 {
		t.Errorf("Voc = %g", v)
	}
}

func TestAvailablePowerScalesWithPressureSquared(t *testing.T) {
	tr := mustNew(t, PaperCylinder())
	f0 := tr.ResonanceHz()
	rhoc := RhoC(1482, false)
	p1 := tr.AvailableElectricalPower(100, f0, rhoc)
	p2 := tr.AvailableElectricalPower(200, f0, rhoc)
	if math.Abs(p2/p1-4) > 1e-9 {
		t.Errorf("power ratio %g, want 4", p2/p1)
	}
	if tr.AvailableElectricalPower(100, f0, 0) != 0 {
		t.Error("zero rhoC should yield zero power")
	}
}

func TestAvailablePowerOrderOfMagnitude(t *testing.T) {
	// A 170 dB re 1µPa wave (≈3.16 kPa RMS ⇒ ~4.5 kPa amplitude) over the
	// cylinder's ~63 cm² at 75% efficiency should deliver milliwatts —
	// enough to charge a supercap to power an MSP430, as the paper
	// demonstrates.
	tr := mustNew(t, PaperCylinder())
	f0 := tr.ResonanceHz()
	rhoc := RhoC(1482, false)
	p := tr.AvailableElectricalPower(4470, f0, rhoc)
	if p < 1e-4 || p > 1 {
		t.Errorf("available power %g W, want mW-scale", p)
	}
}

func TestReflectionStates(t *testing.T) {
	tr := mustNew(t, PaperCylinder())
	f0 := tr.ResonanceHz()
	matched := tr.ConjugateImpedance(f0)
	refl := tr.StateReflection(Reflective, matched, f0)
	abs := tr.StateReflection(Absorptive, matched, f0)
	if refl <= abs {
		t.Errorf("reflective state (%g) must reflect more than absorptive (%g)", refl, abs)
	}
	if abs > 0.01 {
		t.Errorf("conjugate-matched absorptive state reflects %g, want ~0", abs)
	}
	// The short reflects the full coupled wave (efficiency-limited).
	if want := tr.Design().Efficiency; math.Abs(refl-want) > 0.01 {
		t.Errorf("reflective amplitude %g, want ~%g", refl, want)
	}
}

func TestModulationDepthPeaksAtResonance(t *testing.T) {
	tr := mustNew(t, PaperCylinder())
	f0 := tr.ResonanceHz()
	matched := tr.ConjugateImpedance(f0)
	at := tr.ModulationDepth(matched, f0)
	off := tr.ModulationDepth(matched, f0*1.2)
	if at <= off {
		t.Errorf("modulation depth at resonance (%g) should exceed off-resonance (%g)", at, off)
	}
	if at <= 0 || at > 1 {
		t.Errorf("modulation depth %g outside (0,1]", at)
	}
}

func TestFrequencyAgnosticBackscatter(t *testing.T) {
	// Paper §3.3.2: a node matched at 18 kHz still modulates reflections
	// of a 15 kHz wave (nonzero modulation depth out of band) — the
	// reason collisions happen at all.
	tr := mustNew(t, PaperCylinder())
	matched18 := tr.ConjugateImpedance(18000)
	matched15 := tr.ConjugateImpedance(15000)
	if d := tr.ModulationDepth(matched18, 15000); d <= 0.05 {
		t.Errorf("out-of-band modulation depth %g should be substantial (frequency-agnostic backscatter — the cause of §3.3.2's collisions)", d)
	}
	// The diversity property behind the paper's footnote 7: the two
	// nodes' reflection-coefficient *differences* are distinct at each
	// frequency (different magnitude/phase), which keeps the 2×2
	// decoding matrix well conditioned even though both nodes modulate
	// both tones.
	for _, f := range []float64{15000, 18000} {
		d15 := tr.StateReflectionCoeff(Reflective, matched15, f) - tr.StateReflectionCoeff(Absorptive, matched15, f)
		d18 := tr.StateReflectionCoeff(Reflective, matched18, f) - tr.StateReflectionCoeff(Absorptive, matched18, f)
		if cmplx.Abs(d15-d18) < 0.1 {
			t.Errorf("at %g Hz the two nodes' channels are too similar: |Δ| = %g", f, cmplx.Abs(d15-d18))
		}
	}
}

func TestFullyPottedWorseThanAirBacked(t *testing.T) {
	air := mustNew(t, PaperCylinder())
	potted := mustNew(t, FullyPottedCylinder())
	rhoc := RhoC(1482, false)
	fa, fp := air.ResonanceHz(), potted.ResonanceHz()
	if potted.AvailableElectricalPower(1000, fp, rhoc) >=
		air.AvailableElectricalPower(1000, fa, rhoc) {
		t.Error("potted design should harvest less than air-backed (paper §4.1)")
	}
	ma := air.ModulationDepth(air.ConjugateImpedance(fa), fa)
	mp := potted.ModulationDepth(potted.ConjugateImpedance(fp), fp)
	if mp >= ma {
		t.Error("potted design should have lower modulation depth")
	}
}

func TestNewValidation(t *testing.T) {
	base := PaperCylinder()
	cases := []struct {
		name   string
		mutate func(*Design)
	}{
		{"zero resonance", func(d *Design) { d.InAirResonanceHz = 0 }},
		{"zero C0", func(d *Design) { d.ClampedCapacitance = 0 }},
		{"k2 too high", func(d *Design) { d.CouplingK2 = 1 }},
		{"k2 zero", func(d *Design) { d.CouplingK2 = 0 }},
		{"zero Q", func(d *Design) { d.MechanicalQ = 0 }},
		{"negative loading", func(d *Design) { d.MassLoading = -0.1 }},
		{"zero efficiency", func(d *Design) { d.Efficiency = 0 }},
		{"efficiency >1", func(d *Design) { d.Efficiency = 1.5 }},
		{"zero area", func(d *Design) { d.EffectiveAreaM2 = 0 }},
	}
	for _, tc := range cases {
		d := base
		tc.mutate(&d)
		if _, err := New(d); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestMatchingIntegration(t *testing.T) {
	// End-to-end with the circuit package: design an L-section for the
	// transducer at resonance and confirm near-total power transfer.
	tr := mustNew(t, PaperCylinder())
	f0 := tr.ResonanceHz()
	zs := tr.Impedance(f0)
	zl := circuit.ResistorZ(2000) // rectifier input resistance
	net, err := circuit.DesignLSection(zs, zl, f0)
	if err != nil {
		t.Fatal(err)
	}
	if q := net.MatchQuality(zs, zl, f0); q < 0.999 {
		t.Errorf("match quality %g at resonance", q)
	}
	// And that it is frequency selective (recto-piezo principle): the
	// delivered power, including the geometric response the wave must
	// couple through, falls off the design frequency.
	q15 := net.MatchQuality(zs, zl, f0)
	b15 := tr.GeometricResponse(f0)
	q18 := net.MatchQuality(tr.Impedance(18000), zl, 18000)
	b18 := tr.GeometricResponse(18000)
	if q18*b18*b18 >= 0.75*q15*b15*b15 {
		t.Errorf("delivered power should degrade at 18 kHz: %g vs %g",
			q18*b18*b18, q15*b15*b15)
	}
}

func TestStateStrings(t *testing.T) {
	if Absorptive.String() != "absorptive" || Reflective.String() != "reflective" ||
		Open.String() != "open" || SwitchState(9).String() != "unknown" {
		t.Error("switch state names wrong")
	}
}

func TestRhoC(t *testing.T) {
	if RhoC(1500, false) != 1.5e6 {
		t.Error("fresh rhoC wrong")
	}
	if RhoC(1500, true) != 1025*1500 {
		t.Error("salt rhoC wrong")
	}
}
