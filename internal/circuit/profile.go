package circuit

import "repro/internal/prof"

// profileStep attributes one executed step to the run's energy ledger.
// Called from stepOnce only when cfg.Ledger is non-nil, after the step's
// energy accounting, so every value it reads is the one the Outcome
// accumulated: the ledger's flow bins reproduce EnergyHarvested /
// EnergyLost / EnergyAux bit-for-bit (identical float adds in identical
// order) and the time bins partition EnergyDelivered by phase.
//
// The profiler is an observer: it mutates only the ledger, so profiled
// runs stay byte-identical to unprofiled ones in every other output.
func (s *Simulator) profileStep(led *prof.Ledger, aux float64) {
	st := &s.state
	dt := st.cfg.Step

	// Time attribution: circuit state overrides the declared phase —
	// a halted processor is dead time whatever the controller wanted, and
	// a gated clock (hibernation, a parked command) is idle time.
	bin := st.profPhase
	switch {
	case st.halted:
		bin = prof.BinDead
	case st.effFreq == 0:
		bin = prof.BinCPUIdle
	}
	led.AddStep(bin, dt, st.loadPow*dt)

	// Energy flows, mirroring the Outcome accounting above.
	if st.solarPow > 0 {
		led.AddEnergy(prof.BinPVHarvest, st.solarPow*dt)
	} else if st.solarPow < 0 {
		led.AddEnergy(prof.BinPVReverse, -st.solarPow*dt)
	}
	if loss := st.inputPow - st.loadPow; loss > 0 {
		led.AddEnergy(prof.BinRegLoss, loss*dt)
	}
	if aux > 0 {
		led.AddEnergy(prof.BinRadioTx, aux*dt)
	}
}

// profileSkip credits n fast-forwarded steps to the ledger, bitwise as n
// profileStep calls would have (proof obligation 7 in ffwd.go): the node
// is halted, so each step lands dt in dead/brownout with a signed-zero
// load energy and no flow. The dt adds run one per step, in step order;
// one joule add stands for n because adding a signed zero is idempotent.
func (s *Simulator) profileSkip(led *prof.Ledger, n int) {
	dt := s.state.cfg.Step
	led.Joules[prof.BinDead] += s.state.loadPow * dt
	sec := led.Seconds[prof.BinDead]
	for ; n > 0; n-- {
		sec += dt
	}
	led.Seconds[prof.BinDead] = sec
}
