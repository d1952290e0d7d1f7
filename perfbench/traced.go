package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/pmu"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/units"
)

// untracedRepeats is how many untraced operations the traced pass of
// profile-lulesh times for its overhead baseline.
const untracedRepeats = 3

// traceProfileLULESH covers the canonical profile in every layer, the
// stream replayed into all six mechanisms.
func traceProfileLULESH(e *env) (*layerReport, error) {
	lr := newLayerReport()
	in := &profileInstance{env: e}
	var ops []float64
	for i := 0; i <= untracedRepeats; i++ { // the first is warm-up
		t0 := time.Now()
		if _, err := in.op(); err != nil {
			return nil, err
		}
		if i > 0 {
			ops = append(ops, time.Since(t0).Seconds())
		}
	}
	lr.untracedOpS = median(ops)
	cfg, mkApp, err := specBuild(luleshSpec)
	if err != nil {
		return nil, err
	}
	tr, err := lr.traceRun(cfg, mkApp, pmu.Names())
	if err != nil {
		return nil, err
	}
	if err := checkProfile(e.refs.Profile, tr.p, tr.bytes); err != nil {
		return nil, err
	}
	// The traced operation is the untraced one (Spec.Build,
	// core.AnalyzeCtx, profio.Save) under the span tracer.
	if _, err := spanSums(func(context.Context) error {
		t0 := time.Now()
		_, err := in.op()
		lr.tracedOpS = time.Since(t0).Seconds()
		return err
	}); err != nil {
		return nil, err
	}
	lr.shareOfS, lr.enginesPerRun = lr.untracedOpS, 1
	return lr, nil
}

// specBuild builds a spec's configuration the way numad and numaprof
// do, and a constructor of fresh one-shot apps for it.
func specBuild(sp server.Spec) (core.Config, func() core.App, error) {
	cfg, _, err := sp.Build()
	if err != nil {
		return core.Config{}, nil, err
	}
	return cfg, func() core.App {
		_, app, _ := sp.Build() // cannot fail: the same spec just built
		return app
	}, nil
}

// traceSweepTable2 times one untraced and one traced sweep, then covers
// the 18 cells one by one in every layer, each cell's stream replayed
// into its own mechanism.
func traceSweepTable2(e *env) (*layerReport, error) {
	lr := newLayerReport()
	in := &sweepInstance{env: e}
	t0 := time.Now()
	if err := in.op(); err != nil {
		return nil, err
	}
	lr.untracedOpS = time.Since(t0).Seconds()
	if _, err := spanSums(func(context.Context) error {
		t0 := time.Now()
		err := in.op()
		lr.tracedOpS = time.Since(t0).Seconds()
		return err
	}); err != nil {
		return nil, err
	}

	var sum, slowest float64
	for _, mech := range pmu.Names() {
		for _, wl := range experiments.Table2Order {
			tr, err := lr.traceRun(table2Config(mech), func() core.App { return table2App(wl) }, nil)
			if err != nil {
				return nil, fmt.Errorf("table2 %s/%s: %w", mech, wl, err)
			}
			c := experiments.Table2Cell{Mechanism: mech, Workload: wl,
				Base: units.Cycles(tr.base), Monitored: tr.p.Totals.SimTime}
			if err := checkCell(e.refs, c); err != nil {
				return nil, err
			}
			cellS := tr.runS + tr.analyzeS
			lr.addExtra("sched.cell_s."+mech+"."+wl, cellS, "s")
			sum += cellS
			slowest = max(slowest, cellS)
		}
	}
	lr.addExtra("sched.max_cell_s", slowest, "s")
	lr.addExtra("sched.busy_ratio", sum/(float64(e.workers)*lr.untracedOpS), "ratio")
	// Each cell runs its workload twice per sweep (unmonitored and
	// monitored), on e.workers CPUs.
	lr.shareOfS, lr.enginesPerRun = float64(e.workers)*lr.untracedOpS, 2
	return lr, nil
}

// traceNumadSpecs is how many of the seed's new specs the numad traced
// pass covers in every layer.
const traceNumadSpecs = 12

// traceNumadMixed drives the daemon for half the run untraced and half
// under the span tracer, reads the server and store layers from job
// timestamps and the daemon's metrics, then covers a sample of the
// seed's specs in every layer. The tracing overhead compares median
// new-spec round trips, the jobs whose pipeline the tracer spans; the
// traced half continues each client's sequence, so its new specs are
// not those of the untraced half.
func traceNumadMixed(e *env) (*layerReport, error) {
	lr := newLayerReport()
	inst, err := setupNumad(e)
	if err != nil {
		return nil, err
	}
	d := inst.(*numadInstance).d
	defer d.close()

	half := time.Duration(e.seconds) * time.Second / 2
	var untraced, traced numadLog
	load := newLoad(e, d)
	defer closeLoad(load)
	drive(load, e.refs, time.Now().Add(half), &untraced)
	if _, err := spanSums(func(context.Context) error {
		drive(load, e.refs, time.Now().Add(half), &traced)
		return nil
	}); err != nil {
		return nil, err
	}
	for _, l := range []*numadLog{&untraced, &traced} {
		if l.failed > 0 {
			return nil, fmt.Errorf("numad: %d of %d jobs failed: %s", l.failed, l.attempted, l.failures[0])
		}
	}
	missS := func(l *numadLog) float64 {
		var xs []float64
		for _, j := range l.miss {
			xs = append(xs, j.rt.Seconds())
		}
		return median(xs)
	}
	lr.untracedOpS, lr.tracedOpS = missS(&untraced), missS(&traced)

	var queue, run, http []float64
	for _, l := range []*numadLog{&untraced, &traced} {
		for _, j := range append(append([]jobResult(nil), l.miss...), l.hit...) {
			st := j.status
			queue = append(queue, ms(st.StartedAt.Sub(st.SubmittedAt)))
			run = append(run, ms(st.FinishedAt.Sub(st.StartedAt)))
			http = append(http, ms(j.rt-st.FinishedAt.Sub(st.SubmittedAt)))
		}
	}
	lr.addExtra("server.queue_wait_ms", median(queue), "ms")
	lr.addExtra("server.run_ms", median(run), "ms")
	lr.addExtra("server.http_ms", median(http), "ms")
	stats := d.srv.Metrics().Store
	lr.addExtra("store.hit_ratio", float64(stats.Hits())/float64(stats.Hits()+stats.Misses), "ratio")
	lr.addExtra("store.saves", float64(stats.Saves), "count")
	journalMs, err := journalAppendMs(e, d)
	if err != nil {
		return nil, err
	}
	lr.addExtra("store.journal_ms", journalMs, "ms")

	for _, sp := range missSequence(e.seed, 0, e.workers)[:traceNumadSpecs] {
		cfg, mkApp, err := specBuild(sp)
		if err != nil {
			return nil, err
		}
		tr, err := lr.traceRun(cfg, mkApp, pmu.Names())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", specName(sp), err)
		}
		if got := shaHex(tr.bytes)[:specSHALen]; got != e.refs.Numad[specName(sp)].SHA {
			return nil, fmt.Errorf("%s: local profile sha %s differs from the reference", specName(sp), got)
		}
	}
	return lr, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// journalAppendMs appends one record per job the daemon journaled,
// folded to the job's final state as store.RecoverJournal returns it,
// into a fresh journal and returns the median host time of one Append,
// which writes and fsyncs a record. These are not the daemon's own
// queued/running/done records, and the daemon keeps no journal timing
// of its own.
func journalAppendMs(e *env, d *daemon) (float64, error) {
	rec, err := store.RecoverJournal(d.jl.Path())
	if err != nil {
		return 0, err
	}
	var recs []store.JournalRecord
	for _, jj := range rec.Jobs {
		recs = append(recs, store.JournalRecord{ID: jj.ID, State: jj.State, Key: jj.Key, Spec: jj.Spec})
	}
	if len(recs) == 0 {
		return 0, fmt.Errorf("journal: no records")
	}
	jl, err := store.OpenJournal(filepath.Join(d.dir, "replay.log"), 0)
	if err != nil {
		return 0, err
	}
	defer jl.Close()
	var times []float64
	for _, r := range recs {
		t0 := time.Now()
		if err := jl.Append(r); err != nil {
			return 0, err
		}
		times = append(times, ms(time.Since(t0)))
	}
	return median(times), nil
}
