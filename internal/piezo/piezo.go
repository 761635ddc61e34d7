// Package piezo models piezoelectric transducers with the Butterworth–Van
// Dyke (BVD) lumped equivalent circuit, the standard electrical analogue
// of a piezo resonator near resonance. It provides the transducer's
// complex impedance Z(f), its electromechanical conversion in both
// directions (projector transmit, hydrophone/node receive), the
// geometric-resonance bandpass the paper's recto-piezo footnote describes,
// and the reflection behaviour that makes piezo-acoustic backscatter work
// (paper §3.2).
package piezo

import (
	"fmt"
	"math"
	"math/cmplx"

	"pab/internal/circuit"
)

// SwitchState is the termination a PAB node presents to its transducer.
type SwitchState int

// Backscatter switch states (paper Fig 1b). Reflective shorts the
// electrodes, nulling the strain so the incident wave is fully reflected;
// Absorptive presents the matched harvesting load, minimising reflection;
// Open disconnects the load entirely (cold-start charging goes through
// the rectifier, modelled separately).
const (
	Absorptive SwitchState = iota
	Reflective
	Open
)

// String returns the state name.
func (s SwitchState) String() string {
	switch s {
	case Absorptive:
		return "absorptive"
	case Reflective:
		return "reflective"
	case Open:
		return "open"
	default:
		return "unknown"
	}
}

// Design describes a transducer to be fabricated (the knobs §4.1 of the
// paper discusses).
type Design struct {
	// InAirResonanceHz is the ceramic's free resonance (17 kHz for the
	// Steminc cylinder the paper used).
	InAirResonanceHz float64
	// ClampedCapacitance C0 in farads.
	ClampedCapacitance float64
	// CouplingK2 is the effective electromechanical coupling factor k²
	// (dimensionless, 0–1); sets the motional capacitance.
	CouplingK2 float64
	// MechanicalQ of the in-water (loaded) resonator; sets motional R.
	MechanicalQ float64
	// MassLoading is the fractional added vibrating mass from water and
	// encapsulation; shifts the resonance down by √(1+MassLoading).
	MassLoading float64
	// EffectiveAreaM2 is the acoustic capture/radiation area.
	EffectiveAreaM2 float64
	// Efficiency is the electroacoustic conversion efficiency (0–1);
	// air-backed designs are high, fully potted designs low (§4.1).
	Efficiency float64
	// TransmitResponse is the source sensitivity at resonance, Pa·m/V:
	// pressure at 1 m per volt of drive.
	TransmitResponse float64
	// ReceiveResponse is the open-circuit receive sensitivity at
	// resonance, V/Pa.
	ReceiveResponse float64
}

// PaperCylinder returns the design of the paper's transducer: a radially
// vibrating ceramic cylinder (radius 2.5 cm, length 4 cm) resonant at
// 17 kHz in air, air-backed and end-capped, potted in polyurethane. Water
// mass-loading brings the operating resonance to ≈15 kHz, where the
// paper's first recto-piezo was matched.
func PaperCylinder() Design {
	return Design{
		InAirResonanceHz: 17000,
		// A centimetre-scale ceramic cylinder with mm walls has a large
		// clamped capacitance; 200 nF puts the electrical source
		// impedance in the tens of ohms, which the matching network
		// steps up to the rectifier's kilohms — the impedance ratio
		// that gives the recto-piezo its loaded Q (§3.3.1).
		ClampedCapacitance: 200e-9,
		CouplingK2:         0.25,
		// Water loading and the polyurethane encapsulation damp the
		// ceramic heavily; loaded Q of a few is typical for potted
		// transducers and is what lets electrical matching shift the
		// operating point to 18 kHz at usable efficiency (Fig 3).
		MechanicalQ:     3,
		MassLoading:     0.284, // 17 kHz / √1.284 ≈ 15.0 kHz
		EffectiveAreaM2: 2 * math.Pi * 0.025 * 0.04,
		Efficiency:      0.75,
		// 3 Pa·m/V ⇒ ~190 dB re 1 µPa @ 1 m at the amplifier's full
		// 350 V — the modest source level of a hand-built projector,
		// which is what pins Fig 9's power-up ranges to metres.
		TransmitResponse: 3,    // Pa·m/V
		ReceiveResponse:  4e-4, // V/Pa
	}
}

// FullyPottedCylinder returns the same ceramic without the air backing:
// the paper found such designs have poorer sensitivity and harvesting
// efficiency (§4.1). Used by the ablation benches.
func FullyPottedCylinder() Design {
	d := PaperCylinder()
	d.MechanicalQ = 1.5
	d.Efficiency = 0.35
	d.MassLoading = 0.45
	d.ReceiveResponse *= 0.5
	d.TransmitResponse *= 0.5
	return d
}

// Transducer is a fabricated transducer with its derived BVD parameters.
type Transducer struct {
	design Design

	// BVD elements: C0 in parallel with the motional series branch
	// R1–L1–C1 (water-loaded values).
	c0, r1, l1, c1 float64

	waterResonance float64 // Hz, series (motional) resonance in water
}

// New derives the BVD equivalent circuit for a design.
func New(d Design) (*Transducer, error) {
	if d.InAirResonanceHz <= 0 {
		return nil, fmt.Errorf("piezo: in-air resonance must be positive, got %g", d.InAirResonanceHz)
	}
	if d.ClampedCapacitance <= 0 {
		return nil, fmt.Errorf("piezo: clamped capacitance must be positive")
	}
	if d.CouplingK2 <= 0 || d.CouplingK2 >= 1 {
		return nil, fmt.Errorf("piezo: coupling k² must be in (0,1), got %g", d.CouplingK2)
	}
	if d.MechanicalQ <= 0 {
		return nil, fmt.Errorf("piezo: mechanical Q must be positive")
	}
	if d.MassLoading < 0 {
		return nil, fmt.Errorf("piezo: mass loading must be non-negative")
	}
	if d.Efficiency <= 0 || d.Efficiency > 1 {
		return nil, fmt.Errorf("piezo: efficiency must be in (0,1], got %g", d.Efficiency)
	}
	if d.EffectiveAreaM2 <= 0 {
		return nil, fmt.Errorf("piezo: effective area must be positive")
	}

	t := &Transducer{design: d}
	t.c0 = d.ClampedCapacitance
	t.c1 = d.ClampedCapacitance * d.CouplingK2 / (1 - d.CouplingK2)
	// In-air motional inductance from the free resonance, then water
	// loading increases the moving mass.
	wAir := 2 * math.Pi * d.InAirResonanceHz
	l1Air := 1 / (wAir * wAir * t.c1)
	t.l1 = l1Air * (1 + d.MassLoading)
	t.waterResonance = d.InAirResonanceHz / math.Sqrt(1+d.MassLoading)
	t.r1 = math.Sqrt(t.l1/t.c1) / d.MechanicalQ
	return t, nil
}

// Design returns the design the transducer was built from.
func (t *Transducer) Design() Design { return t.design }

// ResonanceHz returns the in-water motional (series) resonance frequency.
func (t *Transducer) ResonanceHz() float64 { return t.waterResonance }

// BandwidthHz returns the -3 dB mechanical bandwidth f0/Q (the paper's
// footnote 2: Q = f/bandwidth).
func (t *Transducer) BandwidthHz() float64 {
	return t.waterResonance / t.design.MechanicalQ
}

// Impedance returns the electrical impedance of the transducer at
// frequency f: C0 in parallel with the motional R1-L1-C1 branch.
func (t *Transducer) Impedance(f float64) circuit.Impedance {
	if f <= 0 {
		return complex(1e18, 0)
	}
	motional := circuit.Series(
		circuit.ResistorZ(t.r1),
		circuit.InductorZ(t.l1, f),
		circuit.CapacitorZ(t.c1, f),
	)
	return circuit.Parallel(circuit.CapacitorZ(t.c0, f), motional)
}

// GeometricResponse returns the mechanical resonance magnitude response
// at frequency f, normalised to 1 at resonance:
//
//	B(f) = 1 / √(1 + Q²·(f/f0 − f0/f)²)
//
// This is the "geometric resonance acts as a bandpass filter" of the
// paper's footnote 5; electrical matching then picks the exact operating
// frequency within (or near) this envelope.
func (t *Transducer) GeometricResponse(f float64) float64 {
	if f <= 0 {
		return 0
	}
	q := t.design.MechanicalQ
	x := f/t.waterResonance - t.waterResonance/f
	return 1 / math.Sqrt(1+q*q*x*x)
}

// TransmitPressure returns the acoustic pressure amplitude (Pa at 1 m) a
// projector built from this transducer radiates when driven with a
// sinusoid of amplitude driveVolts at frequency freqHz (paper §3.1:
// P = αV·sin(2πft+φ)).
func (t *Transducer) TransmitPressure(driveVolts, freqHz float64) float64 {
	return t.design.TransmitResponse * driveVolts * t.GeometricResponse(freqHz)
}

// OpenCircuitVoltage returns the amplitude of the voltage the transducer
// develops across open terminals for an incident pressure amplitude
// pressurePa at frequency freqHz.
func (t *Transducer) OpenCircuitVoltage(pressurePa, freqHz float64) float64 {
	return t.design.ReceiveResponse * pressurePa * t.GeometricResponse(freqHz)
}

// AvailableElectricalPower returns the maximum electrical power (W) a
// conjugate-matched load could extract from an incident plane wave of
// pressure amplitude p (Pa) at frequency f: the acoustic power captured
// over the effective area, scaled by the conversion efficiency and the
// squared geometric response.
func (t *Transducer) AvailableElectricalPower(pressurePa, freqHz, rhoC float64) float64 {
	if rhoC <= 0 {
		return 0
	}
	intensity := pressurePa * pressurePa / (2 * rhoC) // W/m², plane wave
	b := t.GeometricResponse(freqHz)
	return intensity * t.design.EffectiveAreaM2 * t.design.Efficiency * b * b
}

// loadFor returns the electrical termination for a switch state, given
// the matched harvesting load (what the matching network + rectifier
// present at this frequency).
func loadFor(state SwitchState, matched circuit.Impedance) circuit.Impedance {
	switch state {
	case Reflective:
		return 0 // shorted electrodes
	case Open:
		return complex(1e18, 0)
	default:
		return matched
	}
}

// ReflectionCoeff returns the complex ratio of reflected to incident
// pressure when the transducer is terminated with zLoad at frequency f:
// Γ from the paper's Eq. 2 — magnitude *and phase* — windowed by the
// squared geometric response (the wave must couple into the resonator
// and back out) and the conversion efficiency (the paper notes the
// backscatter process is lossy, §3.2). The phase matters: switching
// between two terminations modulates the reflected wave's phase even
// when the two |Γ| are similar, which is why an off-resonance node still
// interferes strongly with a concurrent transmission (§3.3.2).
func (t *Transducer) ReflectionCoeff(zLoad circuit.Impedance, f float64) complex128 {
	zs := t.Impedance(f)
	gamma := circuit.ReflectionCoefficient(zLoad, zs)
	b := t.GeometricResponse(f)
	// Off resonance the wave mostly bypasses the resonator: the
	// structural (rigid-body) reflection is common to both switch states
	// and carries no information, so it is omitted; only the modulated
	// component matters for backscatter.
	return gamma * complex(b*b*t.design.Efficiency, 0)
}

// ReflectionAmplitude returns |ReflectionCoeff| — the reflected
// amplitude ratio when phase is irrelevant.
func (t *Transducer) ReflectionAmplitude(zLoad circuit.Impedance, f float64) float64 {
	return cmplx.Abs(t.ReflectionCoeff(zLoad, f))
}

// StateReflectionCoeff returns the complex reflection coefficient for a
// switch state given the matched harvesting load impedance at this
// frequency.
func (t *Transducer) StateReflectionCoeff(state SwitchState, matched circuit.Impedance, f float64) complex128 {
	return t.ReflectionCoeff(loadFor(state, matched), f)
}

// StateReflection returns the reflection amplitude for a switch state
// given the matched harvesting load impedance at this frequency.
func (t *Transducer) StateReflection(state SwitchState, matched circuit.Impedance, f float64) float64 {
	return cmplx.Abs(t.StateReflectionCoeff(state, matched, f))
}

// ModulationDepth returns the magnitude of the *complex* difference in
// reflection coefficient between the reflective and absorptive states,
// per unit incident pressure — the quantity that sets backscatter SNR
// (paper §3.2, "Maximizing the SNR"). Using the complex difference
// captures phase modulation: two states with similar |Γ| but different
// phase still modulate the reflected wave.
func (t *Transducer) ModulationDepth(matched circuit.Impedance, f float64) float64 {
	r := t.StateReflectionCoeff(Reflective, matched, f)
	a := t.StateReflectionCoeff(Absorptive, matched, f)
	return cmplx.Abs(r - a)
}

// RhoC returns the characteristic acoustic impedance ρc (Pa·s/m) of water
// given sound speed c (m/s), with density ≈ 1000 kg/m³ fresh /
// 1025 kg/m³ salt selected by the salinity flag.
func RhoC(soundSpeed float64, saline bool) float64 {
	rho := 1000.0
	if saline {
		rho = 1025.0
	}
	return rho * soundSpeed
}

// ResponseTimeConstant returns the resonator's exponential settling time
// τ = Q/(π·f0) in seconds: the stored mechanical energy cannot follow an
// instantaneous switch flip, so the reflected wave slews between states
// over ~τ. At high backscatter bitrates the half-bit approaches τ and
// the modulation collapses — the physical cause of the paper's sharp SNR
// drop beyond 3 kbit/s (Fig 8, "the efficiency of the recto-piezo
// reduces as the frequency moves from its resonance").
func (t *Transducer) ResponseTimeConstant() float64 {
	return t.design.MechanicalQ / (math.Pi * t.waterResonance)
}

// ConjugateImpedance returns the conjugate of the transducer impedance at
// f — the load that maximises harvested power there.
func (t *Transducer) ConjugateImpedance(f float64) circuit.Impedance {
	z := t.Impedance(f)
	return complex(real(z), -imag(z))
}
