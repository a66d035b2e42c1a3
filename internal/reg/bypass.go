package reg

// Bypass models the regulator-bypass operating mode of Sec. VI.B/VII, in
// which the microprocessor connects directly to the harvester/capacitor
// node. It is a pass-through: output voltage equals input voltage and no
// conversion loss is incurred. Requesting any output voltage other than the
// input is unreachable.
type Bypass struct{}

var _ Regulator = Bypass{}

// bypassVoltageTolerance is the slack allowed between the requested output
// and the input voltage before the point is declared unreachable (V). A
// small tolerance keeps sweep code that quantises voltages working.
const bypassVoltageTolerance = 1e-6

// Name implements Regulator.
func (Bypass) Name() string { return "Bypass" }

// OutputRange implements Regulator: only the input voltage is reachable.
func (Bypass) OutputRange(vin float64) (lo, hi float64) {
	return vin - bypassVoltageTolerance, vin + bypassVoltageTolerance
}

// Efficiency implements Regulator: unity when vout tracks vin.
func (Bypass) Efficiency(vin, vout, pout float64) float64 {
	if pout <= 0 || vin <= 0 {
		return 0
	}
	if diff := vout - vin; diff < -bypassVoltageTolerance || diff > bypassVoltageTolerance {
		return 0
	}
	return 1
}
