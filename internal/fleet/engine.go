package fleet

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/circuit"
	"repro/internal/prof"
	"repro/internal/runner"
)

// Population is one run of the population engine shared by fleets and
// scenarios: Nodes circuit lanes, advanced together to Horizon in
// shared-clock epochs and reduced in node-ID order. A caller supplies
// what differs between populations — the per-node builder, the node
// label and what happens at a barrier — and the engine owns the rest:
// the parallel build, the lane and ledger slabs, the lane-group grain,
// the epoch loop, failure attribution and the final reductions, so
// every population obeys one determinism contract.
//
// A fleet steps in epochs with a barrier callback; a scenario is a
// one-epoch run (Epoch = Horizon, no callback).
type Population struct {
	Nodes   int
	Horizon float64 // shared simulation end (s), every lane's MaxTime
	Epoch   float64 // shared-clock advance between barriers (s)
	Step    float64 // integration timestep (s), shared by every lane
	// Workers bounds the goroutines building and stepping nodes; < 1
	// means 1. Batch bounds the lanes one worker advances as a contiguous
	// group; < 1 selects ceil(Nodes/Workers), one group per worker. Both
	// are execution details: the results are identical at every value.
	Workers int
	Batch   int
	// Ctx, when non-nil, cancels the run: it is checked at every barrier
	// and before every lane inside an epoch.
	Ctx context.Context
	// Build returns node id's circuit configuration; the engine sets its
	// Step and MaxTime and, when profiling, its Ledger. It runs on the
	// worker pool, so it may read only immutable shared state and write
	// only node id's own slots.
	Build func(id int) (circuit.Config, error)
	// OnBarrier, when non-nil, receives the population's Snapshot at the
	// end of every epoch, on the calling goroutine, before the next epoch
	// starts.
	OnBarrier func(Snapshot)
	// Profile, when non-nil, receives every node's energy ledger, folded
	// in node-ID order under Scope{Experiment: ProfileScope, Node:
	// Label(id)}.
	Profile      *prof.Profile
	ProfileScope string
	Label        func(id int) string
}

// Totals is the node-ID-ordered reduction of a population's outcomes.
type Totals struct {
	Completed       int
	BrownedOut      int
	EnergyHarvested float64 // J
	EnergyDelivered float64 // J
	EnergyAux       float64 // J
	MeanFinalVcap   float64 // V
}

// Result is a finished population run.
type Result struct {
	Totals
	// Lanes holds every node's finished simulator in node-ID order, for
	// callers reporting per-node outcomes.
	Lanes []*circuit.Simulator
}

// Run builds the population and advances it to the horizon.
//
// Inside an epoch the active lanes advance concurrently on the worker
// pool in contiguous groups (runner.ForEachBatch over circuit.Group), each
// worker touching only its own group. At the barrier the calling
// goroutine alone reads the active lanes' Progress in node-ID order on
// top of the retired lanes' frozen totals, so floating-point accumulation
// order — retirement order, then node ID — never depends on the worker
// count or the grain. Finished lanes leave the active set, so an epoch
// costs only its still-running population.
func (p Population) Run() (*Result, error) {
	n := p.Nodes
	workers := max(p.Workers, 1)
	cfgs := make([]circuit.Config, n)
	errs := make([]error, n)
	runner.ForEach(n, workers, func(i int) {
		cfgs[i], errs[i] = p.Build(i)
		cfgs[i].Step, cfgs[i].MaxTime = p.Step, p.Horizon
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// Profiling on: one contiguous ledger slab, one lane per node, so the
	// per-step accumulation writes sequential memory like the lanes do.
	var leds []prof.Ledger
	if p.Profile != nil {
		leds = make([]prof.Ledger, n)
		for i := range cfgs {
			cfgs[i].Ledger = &leds[i]
		}
	}
	// One contiguous slab in node-ID order: the per-epoch lane groups are
	// windows of sequential memory, not scattered pointer targets.
	slab, err := circuit.NewBatch(cfgs)
	if err != nil {
		return nil, nodeError(err, func(lane int) int { return lane })
	}
	lanes := make([]*circuit.Simulator, n)
	active := make([]int, n) // node IDs still running, ascending
	for i := range lanes {
		lanes[i] = slab.Lane(i)
		active[i] = i
	}

	grain := p.Batch
	if grain < 1 {
		grain = (n + workers - 1) / workers
	}
	group := make([]*circuit.Simulator, n)
	groupErrs := make([]error, n)
	var retired Snapshot // frozen totals of the lanes that left the active set
	for epoch := 1; len(active) > 0; epoch++ {
		if p.Ctx != nil {
			if err := p.Ctx.Err(); err != nil {
				return nil, fmt.Errorf("run cancelled: %w", err)
			}
		}
		tEdge := float64(epoch) * p.Epoch
		if tEdge > p.Horizon {
			tEdge = p.Horizon
		}
		target, err := circuit.StepsFor(tEdge, p.Step)
		if err != nil {
			return nil, err
		}
		m := len(active)
		for i, id := range active {
			group[i] = lanes[id]
		}
		eff := min(grain, m) // mirror ForEachBatch's clamp so group indexing matches
		runner.ForEachBatch(m, eff, workers, func(lo, hi int) {
			grp := circuit.Group(group[lo:hi])
			_, groupErrs[lo/eff] = grp.StepToCountContext(p.Ctx, target)
		})
		for g := 0; g < (m+eff-1)/eff; g++ {
			if err := groupErrs[g]; err != nil {
				return nil, nodeError(err, func(lane int) int { return active[g*eff+lane] })
			}
		}

		// Barrier: retired totals first, then the active lanes in ID
		// order; lanes that finished this epoch fold into the retired
		// totals through their now-frozen Progress and leave.
		snap := retired
		snap.Time = tEdge
		live := active[:0]
		for _, id := range active {
			pr := lanes[id].Progress()
			snap.add(pr)
			if pr.Done {
				retired.add(pr)
			} else {
				snap.Active++
				live = append(live, id)
			}
		}
		active = live
		snap.MeanVcap /= float64(n)
		if p.OnBarrier != nil {
			p.OnBarrier(snap)
		}
	}

	res := &Result{Lanes: lanes}
	for _, sim := range lanes {
		out := sim.Outcome()
		res.EnergyHarvested += out.EnergyHarvested
		res.EnergyDelivered += out.EnergyDelivered
		res.EnergyAux += out.EnergyAux
		res.MeanFinalVcap += out.FinalCapVoltage
		if out.Completed {
			res.Completed++
		}
		if out.BrownedOut {
			res.BrownedOut++
		}
	}
	res.MeanFinalVcap /= float64(n)
	if p.Profile != nil {
		for i := range leds {
			if leds[i].Empty() {
				continue
			}
			p.Profile.Ledger(prof.Scope{Experiment: p.ProfileScope, Node: p.Label(i)}).Merge(&leds[i])
		}
	}
	return res, nil
}

// nodeError attributes a batched-lane error to its node: a
// *circuit.LaneError names the failing lane, which node maps to a node
// ID; any other error is the context's cancellation.
func nodeError(err error, node func(lane int) int) error {
	var le *circuit.LaneError
	if errors.As(err, &le) {
		return fmt.Errorf("node %d: %w", node(le.Lane), le.Err)
	}
	return fmt.Errorf("run cancelled: %w", err)
}

// add accumulates one node's progress into the snapshot's totals.
func (s *Snapshot) add(p circuit.Progress) {
	s.Harvested += p.EnergyHarvested
	s.Aux += p.EnergyAux
	s.MeanVcap += p.CapVoltage
	if p.Completed {
		s.Completed++
	}
	if p.BrownedOut {
		s.BrownedOut++
	}
}
