package mppt

import "repro/internal/circuit"

// FractionalVoc is the second conventional MPPT baseline: periodically
// disconnect the load, let the node float to the open-circuit voltage, and
// regulate toward V_mpp ~= k * Voc (k ~ 0.76 for silicon). It adapts to
// light changes — unlike a fixed setpoint — but pays a harvesting dead time
// during every measurement window, which the paper's time-based scheme
// avoids entirely (Eq. 7 measures while discharging normally).
type FractionalVoc struct {
	// Supply is the fixed regulated output voltage (V).
	Supply float64
	// Fraction is k in Vmpp ~= k*Voc. Zero selects 0.76.
	Fraction float64
	// Period is the time between Voc measurements (s). Zero selects 20 ms.
	Period float64
	// SettleTime is the dead time with the load gated while the node floats
	// toward Voc (s). Zero selects 1 ms.
	SettleTime float64
	// Gain is the proportional frequency gain per volt of node error per
	// second. Zero selects 2000 /V/s.
	Gain float64

	// Measurements counts completed Voc samples.
	Measurements int

	target      float64 // current Vmpp estimate (V)
	measuring   bool
	measureEnd  float64
	nextMeasure float64
	freq        float64
}

var _ circuit.Controller = (*FractionalVoc)(nil)

// Init implements circuit.Controller.
func (fv *FractionalVoc) Init(s *circuit.State) {
	if fv.Fraction == 0 {
		fv.Fraction = 0.76
	}
	if fv.Period == 0 {
		fv.Period = 20e-3
	}
	if fv.SettleTime == 0 {
		fv.SettleTime = 1e-3
	}
	if fv.Gain == 0 {
		fv.Gain = 2000
	}
	s.SetBypass(false)
	s.SetSupply(fv.Supply)
	// Start with a measurement immediately: gate the load and float.
	fv.beginMeasurement(s, 0)
}

// beginMeasurement gates the load so the node floats toward Voc.
func (fv *FractionalVoc) beginMeasurement(s *circuit.State, now float64) {
	fv.measuring = true
	fv.measureEnd = now + fv.SettleTime
	s.SetFrequency(0)
}

// OnStep implements circuit.Controller.
func (fv *FractionalVoc) OnStep(s *circuit.State) {
	now := s.Time()
	if fv.measuring {
		if now < fv.measureEnd {
			s.SetFrequency(0)
			return
		}
		// The float is as close to Voc as the window allows: sample it.
		fv.target = fv.Fraction * s.CapVoltage()
		fv.Measurements++
		fv.measuring = false
		fv.nextMeasure = now + fv.Period
		// Resume at the pre-measurement clock (or a gentle default on the
		// first wake) and let the proportional loop walk to the new target.
		if fv.freq == 0 {
			fv.freq = 0.2 * s.Processor().MaxFrequency(fv.Supply)
		}
		s.SetFrequency(fv.freq)
		return
	}
	if now >= fv.nextMeasure {
		fv.beginMeasurement(s, now)
		return
	}
	// Proportional loop steering the node to the fractional-Voc target.
	err := s.CapVoltage() - fv.target
	fv.freq = s.Frequency() * (1 + fv.Gain*err*s.Step())
	if floor := 0.01 * s.Processor().MaxFrequency(fv.Supply); fv.freq < floor {
		fv.freq = floor
	}
	if fm := s.MaxFrequency(s.Supply()); fv.freq > fm {
		fv.freq = fm
	}
	s.SetFrequency(fv.freq)
}

// OnThreshold implements circuit.Controller.
func (fv *FractionalVoc) OnThreshold(*circuit.State, circuit.ThresholdEvent) {}
