package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/pmu"
	"repro/internal/proc"
	"repro/internal/sched"
	"repro/internal/workloads"
)

var sweepTable2 = workload{
	name: "sweep-table2",
	why:  "all six pmu mechanisms over five machine topologies, half the runs unmonitored; the slowest cell bounds the sweep",
	setup: func(e *env) (instance, error) {
		// Warm-up: the smallest cell of every mechanism, so each
		// machine model and sampler has run once before timing.
		mechs := pmu.Names()
		_, err := sched.MapWith(e.workers, len(mechs), func(i int) (struct{}, error) {
			return struct{}{}, runCell(e.refs, mechs[i], "Blackscholes")
		})
		if err != nil {
			return nil, err
		}
		return &sweepInstance{env: e}, nil
	},
	trace: traceSweepTable2,
}

// table2Config is the configuration of a Table 2 cell, as
// experiments.RunTable2 builds it.
func table2Config(mech string) core.Config {
	cfg := experiments.BaseConfig(experiments.MachineForMechanism(mech), 0, proc.Compact)
	cfg.Mechanism = mech
	return cfg
}

// table2App builds a fresh Table 2 benchmark, as experiments.RunTable2
// does with iters 0.
func table2App(wl string) core.App {
	switch wl {
	case "LULESH":
		return workloads.NewLULESH(workloads.Params{})
	case "AMG2006":
		return workloads.NewAMG2006(workloads.Params{})
	default:
		return workloads.NewBlackscholes(workloads.Params{})
	}
}

// runCell measures one Table 2 cell outside the sweep and checks it.
func runCell(r *refs, mech, wl string) error {
	ov, err := core.MeasureOverhead(table2Config(mech), func() core.App { return table2App(wl) })
	if err != nil {
		return err
	}
	return checkCell(r, experiments.Table2Cell{Mechanism: mech, Workload: wl, Base: ov.Base, Monitored: ov.Monitored})
}

// checkCell compares a cell's cycles with the reference.
func checkCell(r *refs, c experiments.Table2Cell) error {
	if c.Err != "" {
		return fmt.Errorf("table2 %s/%s: ERR %s", c.Mechanism, c.Workload, c.Err)
	}
	ref, ok := r.cell(c.Mechanism, c.Workload)
	if !ok {
		return fmt.Errorf("table2 %s/%s: no reference", c.Mechanism, c.Workload)
	}
	if uint64(c.Base) != ref.Base || uint64(c.Monitored) != ref.Monitored {
		return fmt.Errorf("table2 %s/%s: cycles base %d monitored %d, want %d %d",
			c.Mechanism, c.Workload, c.Base, c.Monitored, ref.Base, ref.Monitored)
	}
	return nil
}

type sweepInstance struct{ env *env }

// op runs one Table 2 sweep and checks all 18 cells.
func (in *sweepInstance) op() error {
	t, err := experiments.RunTable2(0)
	if err != nil {
		return err
	}
	if len(t.Cells) != len(in.env.refs.Table2) {
		return fmt.Errorf("table2: %d cells, want %d", len(t.Cells), len(in.env.refs.Table2))
	}
	for _, c := range t.Cells {
		if err := checkCell(in.env.refs, c); err != nil {
			return err
		}
	}
	return nil
}

func (in *sweepInstance) measure(deadline time.Time) (*e2eReport, error) {
	return closedLoop(deadline, func() (int, float64, error) {
		return len(in.env.refs.Table2), in.env.refs.sweepAccesses(), in.op()
	}), nil
}

func (in *sweepInstance) close() {}
